(** Valuation shim. Exposure over simulation logs is measured by the
    one ledger, {!Exposure}; this module keeps only the valuation rule
    it shares with the compiled runtime. *)

open Exchange

val price_for : Spec.t -> Party.t -> Asset.t -> Asset.money
(** What an asset is worth to a party: money at face value; a document
    at what the party pays for it in the spec (its cost basis) or,
    failing that, what it is paid for it; [0] when the party never
    trades it: {!Trust_core.Spec_index.price} over a fresh index of the
    spec. Partially apply it to the spec once; every lookup is then a
    table read. *)
