(** Name resolution and semantic checks: DSL program → {!Exchange.Spec.t}.

    Errors are collected with locations: undeclared or re-declared
    parties, deals between non-principals, dangling commitment
    references, [trust] declarations that join no deal, and every
    {!Exchange.Spec.validate} failure. *)

open Exchange

type error = { message : string; loc : Loc.t }

val program : Ast.program -> (Spec.t, error list) result
(** Elaborate an exchange program (no [request] declarations). *)

type web = {
  trusts : (Party.t * Party.t) list;  (** (truster, trustee) edges *)
  relays : Party.t list;
  requests : (string * Party.t * string * Party.t * Asset.money) list;
      (** (id, buyer, good, seller, price) *)
}
(** A web program: a trust web plus routing requests (see
    {!Trust_core.Routing}, which consumes this shape). *)

val is_web : Ast.program -> bool
(** The program contains at least one [request] declaration. *)

val web : Ast.program -> (web, error list) result
(** Elaborate a web program: [deal]/[priority]/[split]/[persona]
    declarations are rejected (a web's deals come from routing); [trust]
    edges may name trusted agents as trustees. *)

val web_from_string : ?file:string -> string -> (web, string) result
val web_from_file : string -> (web, string) result

val from_string :
  ?obs:Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> ?file:string -> string ->
  (Spec.t, string) result
(** Parse and elaborate; errors rendered as one human-readable string,
    one per line, sorted by source location, each prefixed
    [file:line:col] (or [line:col] without [file]). When a trace [obs]
    is attached, a ["parse"] span (bytes, declaration count) and an
    ["elaborate"] span (party/deal counts, error count) are opened
    under [parent]; the default null sink records nothing. *)

val from_file :
  ?obs:Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> string -> (Spec.t, string) result
(** Like {!from_string} with [?file] set to [path], so errors carry the
    file name. *)

val sort_errors : error list -> error list
(** Stable sort by location, then message. *)
