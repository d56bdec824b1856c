(** The tree's one JSON reader and writer, shared by the trace exporters
    and their re-parse path ({!Analysis.of_jsonl}), the daemon wire
    protocol, lint diagnostics, metrics and the bench emitters.

    The reader takes exactly the JSON this codebase itself emits — objects,
    arrays, strings with the standard escapes, raw numbers, booleans,
    null — and rejects anything with trailing garbage. Numbers are kept
    as their source text so callers decide int vs float. *)

exception Bad of string
(** Raised by {!parse} and the accessors on malformed or mistyped
    input, with a short human-readable reason. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** kept raw: ids parse as int, attrs may be float *)
  | Str of string
  | Obj of (string * t) list
  | Arr of t list

val parse : string -> t
(** Parse one complete JSON value; the whole input must be consumed.
    @raise Bad on malformed input. *)

val field : t -> string -> t
(** [field obj k] — the member [k] of an object.
    @raise Bad when missing or not an object. *)

val field_opt : t -> string -> t option
(** [None] when the member is absent (or the value is not an object). *)

val as_int : t -> int
val as_str : t -> string
val as_bool : t -> bool

val int : int -> t
(** [Num] of the decimal rendering ([%d]). *)

val fixed : int -> float -> t
(** [fixed digits x] — [Num] of [x] with [digits] decimals ([%.*f]). *)

val to_string : t -> string
(** Compact JSON text for a value: no whitespace, members in list
    order, [Num] text verbatim, strings with ["\""], backslash and
    control bytes escaped and every other byte verbatim. The one
    writer: when every [Num] holds JSON number text, {!parse} reads
    back exactly the value written. *)
