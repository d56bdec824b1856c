(** Exact Zipf(s) sampling over ranks [0, n).

    Rank [k] (0-based) is drawn with probability proportional to
    [1 / (k+1)^s]: rank 0 is the heaviest hitter, the tail thins
    polynomially. Sampling is exact — the cumulative distribution is
    precomputed at {!create} and each draw is one uniform from the
    {!Prng} stream plus a binary search — so a fixed seed reproduces
    the same rank sequence on every run, which the million-principal
    load generator ({!Universe}) depends on. *)

type t

val create : n:int -> s:float -> t
(** [create ~n ~s] builds the sampler for [n] ranks with exponent [s].
    [s = 0.] is the uniform distribution; larger [s] concentrates mass
    on low ranks. Allocates O(n) floats.
    @raise Invalid_argument when [n <= 0] or [s < 0.]. *)

val size : t -> int
(** The [n] given to {!create}. *)

val sample : t -> Prng.t -> int
(** One rank in [\[0, n)], advancing the generator by one draw. *)

val pmf : t -> int -> float
(** The exact probability of rank [k] (for tests).
    @raise Invalid_argument when [k] is out of range. *)
