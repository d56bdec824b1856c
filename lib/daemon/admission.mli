(** Admission control: a bounded FIFO of work the daemon has accepted
    but not yet run.

    The bound is the backpressure contract — when the queue is full,
    {!try_push} says no and the daemon answers [busy] instead of
    buffering without limit. The client owns the retry policy; the
    daemon's memory stays bounded no matter how fast submissions
    arrive. *)

type 'a t

val create : ?bound:int -> unit -> 'a t
(** Default bound 64. [bound = 0] refuses everything — useful for
    forcing the busy path in tests.
    @raise Invalid_argument on a negative bound. *)

val try_push : 'a t -> 'a -> bool
(** False when the queue is at its bound. *)

val pop : 'a t -> 'a option
