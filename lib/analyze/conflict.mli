(** Cross-deal conflict analysis.

    Detects shapes that are well-formed per deal but unsound across
    the spec's deals: double spends (TL013), over-pledged indemnities
    (TL014), and deadline races against the synthesized sequence
    (TL015). Location callbacks mirror those in {!Rules}. *)

open Exchange

val deadline_races :
  deal_loc:(string -> Trust_lang.Loc.t option) ->
  Trust_core.Execution.sequence ->
  Diagnostic.t list
(** TL015: a deal whose [within n] deadline is shorter than the number
    of lockstep steps its escrow stays open in the synthesized
    sequence. *)

val structural :
  deal_loc:(string -> Trust_lang.Loc.t option) ->
  split_loc:(string -> Spec.commitment_ref -> Trust_lang.Loc.t option) ->
  Spec.t ->
  Diagnostic.t list
(** The synthesis-free passes, in this order:
    - TL013 double spends: a principal promises the same document into
      more deals than it can supply copies of — one initial endowment,
      plus one per deal that delivers it a copy;
    - TL014 over-pledged indemnities: an owner with two or more splits
      whose combined indemnity pledges exceed the cost of its whole
      conjunction.

    Runs even in quick mode (serve admission gate). *)
