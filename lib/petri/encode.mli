(** Encoding sequencing-graph reduction into a Petri net (§7.4).

    Each sequencing-graph edge becomes a complementary place pair
    [on]/[off]; each legal application of Rule #1 / Rule #2 to an edge
    becomes a transition that consumes the edge's [on] token, produces
    its [off] token, and reads (consume-and-restore) the [off] tokens of
    the side conditions — the other edge of a fringe commitment, the red
    siblings that must already be gone, the sibling edges of a fringe
    conjunction.

    Feasibility of the exchange is then exactly reachability (here also
    coverability: token counts are monotone per place pair) of the
    all-[off] marking, and the net's state space enumerates {e every}
    reduction order — the exhaustive baseline against which the greedy
    reducer's confluence claim (§4.2.4) is checked. *)

open Exchange

type t = {
  net : Net.t;
  initial : Net.Marking.t;
  goal : Net.Marking.t;  (** one token on every [off] place *)
  edge_places : ((int * int) * (Net.place * Net.place)) list;
      (** (cid, jid) -> (on, off) *)
}

val of_spec : Spec.t -> t

val feasible :
  ?max_states:int -> t -> [ `Feasible | `Infeasible | `Unknown ] * Analysis.stats
(** Exhaustive verdict by reachability of [goal]. *)

val reduction_orders : ?max_states:int -> t -> int option
(** Number of distinct reachable marking states — the size of the
    reduction-order state space the greedy algorithm avoids exploring.
    [None] when the bound is hit. *)
