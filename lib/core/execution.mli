(** Execution-sequence recovery (paper §5).

    A feasible reduction yields a total order of the transfers that
    protects every party: pairwise exchanges run in the order their
    commitment nodes disconnected, except that commitments tied to their
    conjunction by a red edge are deferred until all black-edge
    commitments have executed; each trusted conjunction disconnect emits
    a notification.

    Each commitment executes as "principal sends its item to the party
    playing the deal's trusted role". Once an intermediary holds both
    sides of a deal it forwards them — documents before payments, which
    reproduces the paper's 10-step sequence for Example #1. Transfers
    whose source and target coincide (a principal playing its own
    trusted role, §4.2.3) move nothing and emit no message. *)

open Exchange

type origin =
  | Commit of Spec.commitment_ref  (** a principal funds its side *)
  | Forward of string  (** the deal's intermediary completes a side *)
  | Notification of Party.t  (** the conjunction owner that disconnected *)

type step = { index : int; action : Action.t; origin : origin }

type sequence = { spec : Spec.t; steps : step list }

val of_outcome : Reduce.outcome -> (sequence, string) result
(** [Error] when the outcome is not feasible. *)

val actions : sequence -> Action.t list
val final_state : sequence -> State.t
(** The state reached when every step executes. *)

val message_count : sequence -> int
(** Number of steps — every action is one network message (§8). *)

val check_physical : sequence -> (unit, string) result
(** §2.4 constraint: no party sends an asset it does not hold. Initial
    endowments: a principal holds the money it must send and any
    document it sends but does not acquire through another of its deals
    (a reselling broker starts without the document); intermediaries
    start empty. *)

val all_parties_acceptable : sequence -> (Party.t * bool) list
(** Evaluate {!Exchange.Outcomes.acceptable} for every party against the
    final state. A correct execution sequence yields [true] throughout —
    and indeed reaches every party's preferred outcome. *)

val pp : Format.formatter -> sequence -> unit
