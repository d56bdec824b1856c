(** Per-party protocol synthesis.

    A protocol is "a set of instructions for each participant that
    governs its actions" (§2.3). The synthesized execution sequence is a
    total order; a distributed participant cannot observe the whole
    order, only events local to it — assets and notifications arriving.
    Each party's script therefore triggers an action on the latest
    preceding event of the global sequence that the party observes
    (or immediately, when nothing observable precedes it).

    The simulator runs these scripts; an engine-level guard additionally
    delays any send whose asset has not arrived yet, which keeps scripts
    safe when unrelated actions commute. *)

open Exchange

type condition =
  | Now
  | Observed of Action.t
      (** fire once this action has been observed locally: the party is
          the action's target or the informed principal of a notify *)

type scripted_step = { condition : condition; action : Action.t }

type t = {
  spec : Spec.t;
  roles : (Party.t * scripted_step list) list;
      (** every party that acts, with its steps in local order *)
}

val synthesize : Execution.sequence -> t

val synthesize_lockstep : ?prologue:Action.t list -> Execution.sequence -> t
(** The §5 semantics taken literally: the execution sequence is a total
    order and every action waits for the delivery of its global
    predecessor (the first fires immediately). Requires a runtime where
    deliveries are observable by everyone (a bulletin-board / lockstep
    round model — the paper defers a fully distributed protocol to
    future work, §9). [prologue] actions (indemnity deposits) are
    chained in front of the sequence. *)

val script_of : t -> Party.t -> scripted_step list
(** Empty for parties with no actions. *)

val equal_roles : t -> t -> bool
(** Same parties with the same scripts in the same order — the whole
    observable content of a protocol (the [spec] field is not compared).
    Used by the serve-layer protocol cache to assert that a cache hit is
    indistinguishable from fresh synthesis. *)

val observes : Party.t -> Action.t -> bool
(** Does this party locally observe this action? True for the receiving
    target of a transfer (or the refunded source of an [Undo]) and the
    informed party of a notification — and for the performer itself. *)

val pp : Format.formatter -> t -> unit
