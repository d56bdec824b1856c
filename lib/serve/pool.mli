(** A fixed-size domain pool with a bounded work queue.

    [jobs] OCaml 5 domains drain one FIFO of [unit -> unit] closures.
    {!submit} blocks when the queue is full (bounded admission, so a
    fast producer cannot build an unbounded backlog), {!shutdown}
    closes the queue, drains every remaining job, joins every domain
    and re-raises the first job exception, if any, with its original
    backtrace.

    The pool never looks at results: callers hand it closures that
    write into caller-owned slots (one slot per job — e.g. the mutable
    fields of a {!Session.t} owned by exactly one closure). The
    {!shutdown} join is the happens-before edge that makes those slots
    safe to read afterwards, which is how the scheduler merges
    per-session outcomes back in submission order. *)

type t

type stats = {
  workers : int;  (** pool size, fixed at creation *)
  executed : int;  (** jobs completed without raising *)
  worker_waits : int;  (** times an idle worker blocked on an empty queue *)
  submit_waits : int;  (** times {!submit} blocked on a full queue *)
  peak_depth : int;  (** high-water mark of the queue *)
}

val create : ?queue_capacity:int -> jobs:int -> unit -> t
(** Spawn [jobs] worker domains ([>= 1]). [queue_capacity] (default
    256) bounds the backlog {!submit} may build. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a job; blocks while the queue is at capacity.
    @raise Invalid_argument after {!shutdown}. *)

val stats : t -> stats

val shutdown : t -> unit
(** Close the queue, run every queued job, join every domain, then
    re-raise the first exception any job raised (submission order is
    not guaranteed for the {e choice} of exception; there is at most
    one per shutdown). Idempotent only in effect — call it once. *)
