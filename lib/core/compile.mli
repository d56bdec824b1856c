(** Compiled protocol plans (the serve-path "instruction plan").

    [compile] flattens a synthesized protocol — scripts, escrow duties,
    persona duties, deposits, audit criteria, exposure pricing — into
    integer-indexed immutable arrays. A plan is built once per cached
    shape and shared read-only across runs and domains; the
    allocation-free runtime that executes it lives in
    [Trust_sim.Hotpath], which is property-tested against the
    interpreted [Trust_sim.Harness] oracle.

    The representation is deliberately transparent: the runtime indexes
    these arrays directly on its hot path. *)

open Exchange

type step = {
  cond : int;  (** action id to wait for; [-1] means fire immediately *)
  act : int;
}

type deal_slot = {
  sl_deal : int;  (** index into the spec's deal list *)
  sl_left_in : int;  (** [Do] of the Left side transfer into the agent *)
  sl_right_in : int;
  sl_left_back : int;  (** [Undo] counterparts (deadline returns) *)
  sl_right_back : int;
  sl_forwards : int array;  (** completion forwards, documents before money *)
}

type deposit_slot = {
  dp_in : int;  (** [Do] of the §6 deposit transfer *)
  dp_back : int;  (** its [Undo] (the refund) *)
  dp_forfeit : int;  (** [Do] forfeiting the amount to the protected owner *)
  dp_deal : int;  (** deal index of the covered piece *)
  dp_left : bool;  (** covered piece is the deal's Left side *)
}

type escrow = {
  es_atomic : bool;
  es_deals : deal_slot array;  (** mediated deals, spec order *)
  es_deposits : deposit_slot array;  (** held deposits, offer order *)
  es_notifies : step array;  (** notification steps of the agent's script *)
}

type persona_deal = {
  pc_deal : int;
  pc_incoming : int;  (** [Do] of the counterparty's transfer into me *)
  pc_return : int;  (** its [Undo] *)
  pc_forward : int;  (** [Do] of my own counterpart transfer *)
}

type role =
  | Script of { steps : step array; persona : persona_deal array }
  | Escrow of escrow

type commit_check = {
  cc_send : int;  (** the principal's visible send for this commitment *)
  cc_recv : int array;  (** candidate deliveries completing it *)
}

type judge = Judge_principal of int * commit_check array | Judge_trusted of int

type t = {
  spec : Spec.t;
  lockstep : bool;  (** lockstep runs broadcast deliveries *)
  n_deals : int;
  parties : Party.t array;  (** [Spec.parties] order, extended by action endpoints *)
  name_of : int array;  (** party index -> name index *)
  n_names : int;
  pslot_of_name : int array;  (** name index -> principal slot, [-1] none *)
  n_principals : int;
  actions : Action.t array;
  n_actions : int;
  act_kind : int array;  (** 0 [Do], 1 [Undo], 2 [Notify] *)
  act_debit : int array;  (** debited party index, [-1] for notifications *)
  act_credit : int array;
  act_doc : int array;  (** document id, [-1] for money/notify *)
  act_amount : int array;  (** money amount, [0] otherwise *)
  act_beneficiary : int array;
  act_undo : int array;  (** id of a [Do]'s [Undo] counterpart, else [-1] *)
  docs : string array;
  n_docs : int;
  roles : (int * role) array;  (** (party index, role), behaviour order *)
  behavior_of : int array;  (** party index -> roles index, [-1] *)
  endow_balance : int array;  (** per name index *)
  endow_docs : int array array;  (** per name index, per doc id *)
  expiries : (int * int) array;  (** (deal index, expiry tick), spec order *)
  judged : judge array;
  deposit_expect : int array;  (** per action id: §6 deposit occurrences *)
  price_src : int array;  (** asset value to the releasing party *)
  price_tgt : int array;
  custody_if_had : bool array;
      (** target takes custody (not ownership), given the sender had custody *)
  custody_if_not : bool array;
  src_principal : bool array;
  tgt_trusted : bool array;
  bound : int array;  (** per principal slot: §5 single-transfer bound *)
}

(** {2 §5 valuation} *)

val price_for : Spec.t -> Party.t -> Asset.t -> Asset.money
(** {!Spec_index.price} over a fresh index of the spec: money at face
    value; a document at what the party pays for it in the spec (its
    cost basis) or, failing that, what it is paid for it; [0] when the
    party never trades it. The one valuation the exposure ledgers (the
    plan's prices and bounds, [Trust_sim.Exposure]) and the static
    analysis ([Trust_analyze.Absint]) share. Partially apply it to the
    spec once: that builds the price table, and every lookup through
    the returned function is then a table read. *)

val single_transfer_bound :
  ?price:(Party.t -> Asset.t -> Asset.money) -> Spec.t -> Party.t -> Asset.money
(** {!Spec_index.single_transfer_bound} over a fresh index: the largest
    single transfer the party's commitments ever put in flight — [max]
    over its deal sides of the value it sends, priced by [price]
    (default {!price_for} [spec]). *)

val compile :
  ?index:Spec_index.t ->
  lockstep:bool ->
  shared:bool ->
  ?plan:Indemnity.plan ->
  price:(Party.t -> Asset.t -> int) ->
  Spec.t ->
  Protocol.t ->
  t
(** Flatten a synthesized protocol. [price] is the deal-implied
    valuation used by exposure accounting (pass {!price_for} [spec], or
    {!Spec_index.price} of [index]); [lockstep] and [shared] must
    match the harness options the protocol will run under. [index]
    (default: built here) is the spec's {!Spec_index} when the caller's
    synthesis already has one.
    @raise Invalid_argument if the spec carries acceptability
    overrides — those specs are not cacheable and never compiled. *)

val party_index : t -> Party.t -> int
(** Index of a party in [parties], [-1] if unknown to the plan. *)
