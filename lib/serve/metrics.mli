(** A small metrics registry for the exchange service: named counters,
    gauges and latency histograms with deterministic text and JSON
    snapshots.

    Determinism is load-bearing: every quantity the service records is
    measured in {e virtual} units (engine ticks, events, session
    counts), so two runs with the same seed produce byte-identical
    snapshots. Wall-clock throughput is deliberately kept out of the
    registry — see {!Service.wall_line}. Snapshots render metrics
    sorted by name, never in hash-table order.

    The registry is {e domain-safe}: counters are a single [Atomic.t]
    (lock-free increments), histograms and gauges are mutex-guarded,
    and registration is serialized on the registry mutex, so pool
    workers ({!Pool}) may record concurrently. Counter increments and
    histogram observations commute, which is what keeps snapshots
    byte-identical at any [--jobs]: the {e set} of recorded values is
    determined by the seed, and the order they land in is not
    observable. Take snapshots after the recording domains have been
    joined. *)

type t
type counter
type histogram

val create : unit -> t

val counter : t -> ?help:string -> string -> counter
(** Register (or fetch, when already registered) a counter.
    @raise Invalid_argument when the name is taken by another kind. *)

val incr : ?by:int -> counter -> unit
val value : counter -> int

val histogram : t -> ?help:string -> ?buckets:int list -> string -> histogram
(** Upper-bound buckets, strictly increasing; an implicit [+Inf] bucket
    is always appended. Defaults to a 1..10000 log-ish ladder suited to
    engine tick and event counts. *)

val observe : histogram -> int -> unit

val gauge : t -> ?help:string -> ?volatile:bool -> string -> float -> unit
(** Set a gauge, registering it on first use. [volatile] (default
    false) marks timing telemetry — queue high-water marks, wait
    counts — whose value depends on scheduling, not on the seed: it
    stays a real registry series but is excluded from {!to_text} and
    {!to_json} (which must stay byte-identical run-to-run) and is
    rendered by {!volatile_text} instead, the same quarantine the
    service applies to wall-clock throughput. *)

val to_text : t -> string
(** Prometheus exposition-format snapshot: [# HELP] and [# TYPE] lines,
    counter samples, cumulative [_bucket{le="…"}] series ending in
    [+Inf] plus [_sum]/[_count] for histograms, gauges with fixed
    6-decimal formatting — all sorted by metric name. Volatile gauges
    are omitted. test/test_metrics.ml checks this contract with a small
    exposition parser. *)

val to_json : t -> Trust_obs.Json.t
(** The same snapshot as one JSON object:
    [{"counters":{…},"gauges":{…},"histograms":{…}}], keys sorted.
    Volatile gauges are omitted. *)

val volatile_text : t -> string
(** The volatile gauges only, [name value] per line, sorted — for
    stderr, next to the wall-clock line. Empty when none were set. *)
