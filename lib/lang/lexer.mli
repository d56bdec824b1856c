(** Hand-written lexer for the exchange DSL.

    Comments run from [#] to end of line. Identifiers are
    [\[A-Za-z_\]\[A-Za-z0-9_*\]*] (the [*] allows the generated ["t*"]
    universal-intermediary name to round-trip). Money literals are
    [$<int>] or [$<int>.<2 digits>]. *)

type error = { message : string; loc : Loc.t }

val tokenize : string -> (Token.t Loc.located list, error) result
(** The token stream always ends with {!Token.Eof}. *)
