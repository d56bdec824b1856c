(** A synthetic million-principal marketplace.

    {!Gen} draws transactions over a {e fixed} cast ("c", "p", "b1" …),
    which is what batch experiments want: every [chain ~brokers:2] is
    the same spec, so the protocol cache hit rate is near 1. A
    long-lived service sees the opposite regime — millions of distinct
    principals whose popularity is heavy-tailed — and this module
    models it: the principal space is partitioned into role
    subpopulations (consumers, producers, brokers, trusted agents),
    each with its own {!Zipf} popularity law, and every transaction
    draws its cast by rank. Heavy-hitter brokers recur constantly; the
    consumer long tail is effectively seen once, which is exactly the
    traffic that exercises the daemon cache's epoch aging.

    A configurable slice of traffic replays {e catalog templates}:
    template [i] deterministically re-derives the same cast from a
    PRNG seeded by [i], so popular storefront transactions repeat
    byte-identically and hit the protocol cache, while personalized
    long-tail traffic misses and ages out.

    Everything is deterministic in the caller's {!Prng} stream. *)

open Exchange

type config = {
  principals : int;  (** total universe size across all roles *)
  broker_share : float;  (** fraction of principals who are brokers *)
  producer_share : float;
  agent_share : float;  (** trusted third parties (§2's mutually trusted agents) *)
  s_consumers : float;  (** Zipf exponent per role: consumers are the long tail… *)
  s_producers : float;
  s_brokers : float;  (** …and brokers the heavy hitters *)
  template_share : float;  (** fraction of traffic replaying catalog templates *)
  templates : int;  (** catalog size; 0 disables the template slice *)
  s_templates : float;
  mix : Gen.mix;  (** transaction-shape weights and trust density *)
}

val default_config : config
(** One million principals: 0.1% brokers (s = 1.2), 5% producers
    (s = 1.0), 0.02% trusted agents, the rest consumers (s = 0.9);
    30% of traffic replays a 512-template catalog (s = 1.1);
    {!Gen.default_mix} shapes. *)

val defect_heavy : config
(** The trace-mining soak profile: {!default_config} reweighted so
    per-shape incidents accumulate fast — 60% of traffic replays a hot
    64-template catalog (s = 1.3) and the mix leans into deep chains
    (weight 4, up to 4 brokers) and wide fans (weight 4, up to 5
    documents), the long multi-party runs that retry, expire and trip
    the exposure bound under fault injection. Pair with the daemon's
    [--defect-every] / [--drop-rate] knobs. *)

type t

val create : config -> t
(** Partitions the principal space and precomputes the per-role Zipf
    tables (O(principals) floats). Every subpopulation is floored at
    the cast size the configured mix can demand, so small universes
    (CI smoke runs) stay valid.
    @raise Invalid_argument when [principals] is too small for the mix
    or a share is negative. *)

val consumers : t -> int
val producers : t -> int
val brokers : t -> int
val agents : t -> int
(** Subpopulation sizes after partitioning. *)

val sample : t -> Prng.t -> Spec.t
(** One transaction. Usually long-tail: shape rolled from the mix, cast
    drawn rank-by-rank from the role Zipf laws (ranks are probed to
    distinctness within a role, so a chain never reuses a broker),
    direct-trust personas sprinkled at the mix's density. With
    probability [template_share] the draw is a catalog replay instead:
    a template rank is Zipf-sampled and the spec is re-derived from a
    PRNG seeded by that rank — the same template always yields the
    identical spec. *)
