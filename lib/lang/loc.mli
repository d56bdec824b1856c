(** Source locations for DSL error reporting. *)

type t = { line : int; col : int }

val start : t
val advance : t -> char -> t
(** Next position after reading the character (newline resets column). *)

val compare : t -> t -> int
(** Document order: by line, then column. Used to sort collected
    diagnostics deterministically. *)

val pp_located : ?file:string -> Format.formatter -> t -> unit
(** The compact compiler-style prefix: [file:line:col] when [file] is
    given, [line:col] otherwise. *)

type 'a located = { value : 'a; loc : t }

val at : t -> 'a -> 'a located
