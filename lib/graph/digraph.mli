(** Mutable directed graphs over integer node identifiers.

    Nodes are dense non-negative integers allocated by {!add_node}. Edges
    are unlabelled ordered pairs; parallel edges are collapsed. The
    structure is deliberately small and imperative: the execution
    orderer, the trust-web router and the interaction graph build one,
    walk it, and drop it. *)

type t

(** {1 Construction} *)

val create : ?initial_capacity:int -> unit -> t
(** [create ()] is an empty graph. *)

val add_node : t -> int
(** [add_node g] allocates a fresh node and returns its identifier.
    Identifiers are consecutive integers starting at [0]. *)

val add_nodes : t -> int -> int list
(** [add_nodes g n] allocates [n] fresh nodes, returned in order. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds edge [u -> v]. Adding an existing edge is a
    no-op. @raise Invalid_argument if [u] or [v] is not a node of [g]. *)

(** {1 Queries} *)

val node_count : t -> int
val edge_count : t -> int

val succ : t -> int -> int list
(** Successors of a node, in insertion order. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter_nodes : (int -> unit) -> t -> unit
val iter_edges : (int -> int -> unit) -> t -> unit

(** {1 Algorithms} *)

val topological_sort : t -> int list option
(** Kahn's algorithm. [None] when the graph has a directed cycle. *)
