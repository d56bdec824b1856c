(** Per-spec lookup tables for one synthesis.

    Cold synthesis — the §5 abstract interpretation and plan
    compilation — and the dynamic exposure ledger keep asking
    the same questions of one spec: what a document is worth to a party,
    which agents coordinate a bundle, who may hold an asset in custody,
    which deals a defector can stall. {!make} answers all of them in a
    single pass over the spec's commitments, so each lookup is a table
    read instead of a whole-spec scan.

    An index is a transient: build it at the start of a synthesis (or a
    ledger fold), share it among the passes of that synthesis, and drop
    it. It is never stored in a cache entry. It memoizes
    {!touched_deals} in place, so it must not be shared across
    domains. *)

open Exchange

type t

val make : Spec.t -> t
val spec : t -> Spec.t

val commitments : t -> (Spec.commitment_ref * Spec.deal) list
(** {!Exchange.Spec.commitments}, computed once. *)

val find_deal : t -> string -> Spec.deal option
(** {!Exchange.Spec.find_deal} by table. *)

val own_commitments : t -> Party.t -> (Spec.commitment_ref * Spec.deal) list
(** The commitments whose side principal is the party, in
    {!commitments} order; [[]] for trusted roles. *)

(** {1 §5 valuation} *)

val price : t -> Party.t -> Asset.t -> Asset.money
(** What an asset is worth to a party: money at face value; a document
    at what the party pays for it in the spec (its cost basis) or,
    failing that, what it is paid for it; [0] when the party never
    trades it. This is the one valuation; {!Compile.price_for} is this
    function over a fresh index. *)

val single_transfer_bound :
  ?price:(Party.t -> Asset.t -> Asset.money) -> t -> Party.t -> Asset.money
(** The §5 bound: the largest single transfer the party's commitments
    ever put in flight — [max] over its own deal sides of the value it
    sends, priced by [price] (default {!price}). *)

(** {1 Coordination and custody} *)

val coordinates : t -> Party.t -> bool
(** The agent coordinates at least one of the spec's
    {!Sequencing.coordinated_bundles}, computed once per index. *)

val custody_holder :
  t -> src:Party.t -> src_had_custody:bool -> Party.t -> Asset.t -> bool
(** Is a transfer of the asset from [src] to the holder a hand-over
    into custody rather than a final delivery? Genuine trusted parties
    always hold in trust. A principal holds in trust only as the
    persona performing some deal's trusted role, for that deal's side
    whose principal is someone else, and only when it is not itself the
    counter-side principal — and only if [src] is that side's principal
    or is itself forwarding custody ([src_had_custody]). *)

(** {1 Defection reach} *)

val touched_deals : t -> Party.t -> string list
(** Deals a defecting party can stall: its own, closed under document
    supply (a resale cannot complete when its supplier stalls). Each
    closure round adds, in deal order, the deals supplied by the
    previous rounds, in front of them. Memoized per defector. *)
