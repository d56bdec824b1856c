(** Wire framing: 4-byte big-endian length prefix, then that many
    payload bytes.

    The daemon reads from nonblocking sockets, so arrivals are
    arbitrary byte chunks — half a header, three frames at once, a
    header now and its payload next week. The {!decoder} is an
    incremental reassembler: feed it whatever [read] returned and it
    yields every complete frame, keeping the remainder buffered.

    Frames are bounded: a decoder created with [max_frame] reports any
    longer announcement as {!Oversized} and poisons itself — after a
    length field that large the stream offset is unrecoverable (this is
    also how line noise before the handshake dies: ASCII bytes read as
    a length in the hundreds of megabytes). The connection must be
    closed; the protocol answer is sent first by the daemon. *)

val default_max : int
(** 1 MiB — generous for specs, far below any length that ASCII
    garbage decodes to. *)

val encode : string -> string
(** The frame bytes for one payload: header plus payload.
    @raise Invalid_argument when the payload exceeds the representable
    length (2{^31}-1). *)

type decoder

type event =
  | Frame of string  (** one complete payload, in arrival order *)
  | Oversized of int  (** announced length; the decoder is now poisoned *)

val create : ?max_frame:int -> unit -> decoder

val feed : decoder -> bytes -> int -> event list
(** [feed d buf len] consumes [buf.[0..len)] and returns the events it
    completed, in order. A poisoned decoder returns [[]] forever. *)

val feed_string : decoder -> string -> event list

val buffered : decoder -> int
(** Bytes held waiting for a complete frame. *)

val poisoned : decoder -> bool

(** {1 Blocking writers} — for the client side and tests; the daemon
    itself writes through its own nonblocking output buffers. *)

val write_frame : Unix.file_descr -> string -> unit
(** [encode] then write fully, retrying short writes and [EINTR]. *)
