(** Ordered action histories — §2.3's "more expressive" alternative
    state representation, and the saga connection of §7.2.

    A history is the sequence of actions as they happened, where a
    {!State.t} is only the set. Order supports checks sets cannot
    express: a compensation must follow what it compensates, nothing is
    executed or reversed twice, and — the saga view — any incomplete
    history can be closed by a generated compensating tail that returns
    every party to the status quo. *)

type t
(** An ordered history, oldest first. *)

val of_actions : Action.t list -> t
val of_deliveries : (int * Action.t) list -> t
(** From timestamped deliveries (e.g. an {!Trust_sim.Engine.result} log,
    already chronological). Timestamps are kept for reporting. *)

val actions : t -> Action.t list
val length : t -> int
val to_state : t -> State.t
(** Forget the order (and any duplicates — states are sets, §2.3). *)

(** {1 Well-formedness} *)

type violation =
  | Undo_without_do of Action.transfer  (** compensated something that never happened *)
  | Undo_before_do of Action.transfer  (** ordered the other way around *)
  | Duplicate_do of Action.transfer
  | Duplicate_undo of Action.transfer

val well_formed : t -> (unit, violation list) result
(** Every [Undo] follows exactly one matching [Do]; no transfer happens
    or is reversed twice. Notifications are unconstrained. *)

val compensation_pairs : t -> (Action.transfer * int * int) list
(** Matched [(transfer, do-index, undo-index)] pairs, 0-based. *)

val open_transfers : t -> Action.transfer list
(** [Do]s without a matching [Undo], oldest first — what is still "in
    flight" or irrevocably delivered. *)

(** {1 Sagas (§7.2)} *)

val compensating_tail : t -> Action.t list
(** The [Undo]s that close every open transfer, newest first (sagas
    compensate in reverse order). Appending them makes every party's
    final state inert: each deal ends [Nothing] or [Refunded]. *)

val saga_for : Spec.t -> party:Party.t -> t -> bool
(** The §7.2 reading: the history is an acceptable saga for the party —
    well-formed and its final state acceptable
    ({!Outcomes.acceptable}). *)

val pp_violation : Format.formatter -> violation -> unit
