(** Interaction graphs (paper §3): the bipartite graph [I = (P, T, E)]
    of principals, trusted components, and the edges between a principal
    and the intermediary it uses for one side of an exchange.

    Built from a {!Spec.t}; node identifiers are stable across calls so
    renders and tests can refer to them. *)

type t

val of_spec : Spec.t -> t

val graph : t -> Trust_graph.Digraph.t
(** The underlying graph. Edges are directed principal -> trusted for
    determinism but the interaction graph is conceptually undirected. *)

val node_of_party : t -> Party.t -> int
(** @raise Not_found for parties outside the spec. *)

val party_of_node : t -> int -> Party.t
val is_bipartite : t -> bool
(** Always [true] for graphs built by {!of_spec}; exposed so property
    tests can assert the §3 invariant. *)

val to_dot : t -> string
(** Graphviz rendering in the paper's style: principals as circles,
    trusted components as squares. *)
