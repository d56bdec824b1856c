(** One-call analysis: spec → sequencing graph → reduction → execution
    sequence, plus the indemnity rescue loop for infeasible bundles. *)

open Exchange

type analysis = {
  spec : Spec.t;
  outcome : Reduce.outcome;
  sequence : Execution.sequence option;  (** [Some] iff feasible *)
}

val analyze :
  ?shared:bool -> ?obs:Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> Spec.t -> analysis
(** [shared] (default false) also enables {!Reduce.Rule3_shared}, the
    shared-agent extension. [obs]/[parent] attach the reducer's
    profiler span to a trace (see {!Reduce.run}); the default null sink
    records nothing. *)

val is_feasible : ?shared:bool -> Spec.t -> bool

val blocking_conjunctions : analysis -> Party.t list
(** Owners of conjunctions with edges remaining in the stuck graph —
    the candidates for indemnification or direct trust. Empty when
    feasible. *)

type rescue = {
  plans : Indemnity.plan list;  (** one per conjunction that was split *)
  analysis : analysis;  (** of the split spec; feasible on success *)
}

val rescue_with_indemnities : ?shared:bool -> ?analysis:analysis -> Spec.t -> rescue option
(** Repeatedly: analyze; if stuck, greedily indemnify the blocking
    {e principal} conjunction whose split is cheapest, and retry.
    [None] when no further principal conjunction can be split and the
    spec is still infeasible. Feasible specs return a rescue with no
    plans. [analysis], when given, must be [analyze ?shared spec]; the
    loop starts from it instead of analysing the bare spec again. *)

val total_indemnity : rescue -> Asset.money

val merged_plan : rescue -> Indemnity.plan option
(** The rescue's per-conjunction plans as the one plan a run installs:
    their offers in order, priced at {!total_indemnity}. [None] when
    nothing was split. *)

val pp_analysis : Format.formatter -> analysis -> unit
