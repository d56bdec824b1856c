(** Sequencing-graph reduction (paper §4.2).

    Two rules delete edges until none applies:

    - {b Rule #1} — a fringe commitment node's edge [(c, j)] may be
      removed when no {e other} remaining red edge [(b, j)] pre-empts
      it, or when the commitment's principal itself plays its trusted
      role (direct trust, §4.2.3/§4.2.4 clause 2).
    - {b Rule #2} — a fringe conjunction node's last edge may be removed.

    §4.2.4: reductions are confluent — any maximal series of reductions
    yields the same feasibility verdict — so a greedy strategy suffices.
    The deterministic strategy applies Rule #2 eagerly after each
    deletion (conjunction disconnects, i.e. notifications, fire as soon
    as enabled) and otherwise scans commitments in index order; this is
    the order the paper walks through for Example #1. The randomized
    strategy exists to test confluence. *)

type rule =
  | Rule1  (** fringe commitment, not pre-empted *)
  | Rule1_persona  (** fringe commitment, pre-empted but principal plays its own agent *)
  | Rule2  (** fringe conjunction *)
  | Rule3_shared
      (** extension (§9 "an agent is trusted by more than two parties"):
          a principal's conjunction whose remaining commitments all pass
          through one trusted agent is enforced by that agent itself —
          the agent sees every piece and completes them atomically (§8's
          universal-intermediary argument) — so its black edges may be
          removed without the fringe requirement. Only applied by
          {!run_shared}. *)

type deletion = {
  step : int;  (** 1-based position in the deletion order *)
  rule : rule;
  cid : int;
  jid : int;
  colour : Sequencing.colour;
  commitment_disconnected : bool;  (** this deletion removed the commitment's last edge *)
  conjunction_disconnected : bool;
}

type verdict =
  | Feasible
  | Stuck of { remaining : (int * int * Sequencing.colour) list }
      (** remaining [(cid, jid, colour)] edges of the irreducible graph.
          §4.2.4: a stuck graph means no feasibility determination —
          the exchange is not {e shown} feasible (and for the exchange
          problems considered here, treated as infeasible). *)

type outcome = {
  verdict : verdict;
  deletions : deletion list;  (** in deletion order *)
  graph : Sequencing.t;  (** the (mutated) reduced graph *)
}

val run : ?obs:Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> Sequencing.t -> outcome
(** Reduce with the deterministic strategy. The graph is mutated;
    pass a {!Sequencing.copy} to keep the original. Incremental:
    instead of re-scanning every node after each deletion, it
    re-examines only the nodes a deletion can newly enable — the
    deleted edge's endpoints and the conjunction's other commitments —
    keeping candidates in ordered sets that mirror the deterministic
    priority. Near-linear for bounded conjunction degree, with the
    deletion sequence the paper's Example #1 walkthrough follows;
    {!run_rescan} is the quadratic reference implementation it is
    property-tested against (identical verdicts {e and} deletion
    sequences).

    When a trace [obs] is attached, the run opens a [reduce]-phase span
    (child of [parent]) carrying the per-rule profiler: one ["delete"]
    timeline event per rule application (step, rule, edge, colour,
    owner) and counters for rule applications, worklist pushes and the
    final verdict. Tracing never alters the reduction. *)

val run_rescan : ?obs:Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> Sequencing.t -> outcome
(** The original rescanning reducer: recompute every applicable
    deletion after each step and pick by the deterministic priority.
    Quadratic; kept as the executable specification ({e test oracle})
    for {!run}, which must match its verdicts {e and}
    deletion sequences exactly. Its profiler span records ["rescans"]
    (full scans of the graph) instead of worklist pushes. *)

val run_randomized : choose:(int -> int) -> Sequencing.t -> outcome
(** Reduce applying, at each step, a uniformly chosen applicable
    deletion: [choose n] must return an index in [\[0, n)]. Used by the
    confluence property tests. *)

val run_shared : ?obs:Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> Sequencing.t -> outcome
(** The deterministic strategy of {!run} with {!Rule3_shared} also
    enabled. Strictly more permissive than the paper's two rules: it
    additionally recognises bundles whose pieces all flow through one
    trusted agent (the paper's own §8 argument, promoted to a rule as §9
    suggests). Requires the runtime counterpart — an {e atomic} escrow
    that forwards nothing until all its deals are in
    ({!Trust_sim.Behavior.escrow}) — for the verdict to be safe. *)

val feasible : outcome -> bool

val applicable : Sequencing.t -> (rule * int * int) list
(** All currently applicable deletions [(rule, cid, jid)], commitments
    in index order. Both Rule #1 clauses and Rule #2 are reported;
    duplicates (an edge removable by several rules) are collapsed to the
    first applicable rule in the order Rule2, Rule1, Rule1_persona. *)

val pp_rule : Format.formatter -> rule -> unit
val pp_outcome : Format.formatter -> outcome -> unit
