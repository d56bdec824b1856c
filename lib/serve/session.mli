(** One exchange session: a single spec travelling through the service.

    The lifecycle is explicit and enforced:

    {v Queued → Synthesizing → Running → Settled | Aborted | Expired v}

    plus [Expired → Queued] when the scheduler requeues a session for
    its single retry after a fault-injected run. Any other transition
    is a bug and raises.

    - [Settled]: the run completed and the audit reached every party's
      preferred outcome.
    - [Aborted]: synthesis failed — the spec is infeasible and the
      rescue policy could not (or was not allowed to) fix it.
    - [Expired]: the run ended without settling — a defector or a
      dropped delivery stalled the protocol and the escrow deadline
      unwound it. *)

open Exchange

type status =
  | Queued
  | Synthesizing
  | Running
  | Settled
  | Aborted of string  (** the synthesis error *)
  | Expired

type t = {
  id : int;
  spec : Spec.t;
  defectors : (Party.t * Trust_sim.Harness.defection) list;
  mutable status : status;
  mutable attempts : int;  (** engine runs started *)
  mutable cache_hit : bool;  (** last synthesis was served from the cache *)
  mutable started_at : int;  (** virtual lane time at admission *)
  mutable finished_at : int;  (** virtual lane time at completion *)
  mutable ticks : int;  (** virtual duration of all runs (≥ 1 once terminal) *)
  mutable events : int;  (** engine events across runs *)
  mutable stalled : int;  (** parked-forever actions in the last run *)
  mutable exposure_peak : int;  (** max peak at-risk cents over all runs *)
  mutable exposure_ticks : int;  (** at-risk ticks summed over runs *)
  mutable exposure_violations : int;  (** §5 bound violations summed over runs *)
}

val make : id:int -> ?defectors:(Party.t * Trust_sim.Harness.defection) list -> Spec.t -> t

val transition : t -> status -> unit
(** @raise Invalid_argument on a transition the lifecycle does not allow. *)

val status_label : status -> string
(** ["queued" | "synthesizing" | "running" | "settled" | "aborted" | "expired"]. *)
