(** Hash-consing of front-end values (parties and assets).

    The elaborator routes its constructors through these tables so that
    repeated elaborations of equal source return physically equal
    values, letting the [==] fast paths in [Party.compare],
    [Asset.compare] and [Action.compare] short-circuit. Tables are
    process-global, thread-safe, and bounded (65 536 entries); past
    the bound values are returned un-interned — interning is a sharing
    hint, never a correctness requirement. *)

open Exchange

val consumer : string -> Party.t
val producer : string -> Party.t
val broker : string -> Party.t
val trusted : string -> Party.t
val money : Asset.money -> Asset.t
val document : string -> Asset.t
