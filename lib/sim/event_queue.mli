(** A binary min-heap priority queue keyed by virtual time, with FIFO
    tie-breaking so simultaneous events keep their insertion order —
    deterministic simulation depends on it. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Earliest event, insertion order within equal times. *)
