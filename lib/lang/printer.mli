(** Rendering a {!Exchange.Spec.t} back to DSL source.

    [Elaborate.from_string (to_string spec)] reproduces a spec equal to
    [spec] up to acceptability overrides (which have no surface syntax);
    the test suite checks this round trip on every scenario. *)

open Exchange

val to_string : Spec.t -> string

val web_to_string : Elaborate.web -> string
(** Render a web program; [Elaborate.web_from_string] round-trips it. *)
