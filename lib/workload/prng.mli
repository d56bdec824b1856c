(** Deterministic SplitMix64 pseudo-random numbers.

    The workload generators and randomized-order reduction tests need
    reproducible randomness that is independent of the stdlib [Random]
    state; a fixed seed must generate the same workload on every run so
    EXPERIMENTS.md numbers are stable. *)

type t

val create : int64 -> t
(** Seeded generator. Distinct seeds give independent streams. *)

val copy : t -> t

val next_int64 : t -> int64
(** Uniform over all 2{^64} values. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument
    when [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val split : t -> t
(** An independent generator derived from (and advancing) [t]. *)
