(** The trustseq daemon: a long-lived exchange service.

    One process, one {!Trust_serve.Cache} and one
    {!Trust_serve.Metrics} registry, serving spec submissions over the
    length-prefixed {!Wire} protocol on a Unix socket and/or a TCP
    listener. The event loop is a single [select] thread: connections
    are nonblocking, input is reassembled per-connection by a
    {!Frame.decoder}, and each admitted submission runs synchronously
    through {!Trust_serve.Scheduler.process_one} — the same lifecycle
    (admission lint, cached synthesis, engine run, audit) a batch
    session gets, parented under a [daemon.request] root span when
    tracing — inside {!Trust_serve.Scheduler.retain}, the batch's own
    sampling and tail-retention rule.

    {2 Admission and backpressure}

    A select round may deliver many pipelined requests at once; at most
    [max_pending] are queued for the processing pass and the rest are
    answered [busy] immediately. Nothing is ever buffered without
    bound: input is capped by {!Frame.default_max}, the work queue by
    [max_pending], and output buffers drain through the same select
    loop.

    {2 Cache aging}

    Every [epoch_every] served requests the daemon advances the cache
    epoch ({!Trust_serve.Cache.advance_epoch}), sweeping entries idle
    for [max_idle_epochs] — the Zipf long tail ages out while
    heavy-hitter and catalog shapes stay warm. Each tick also refreshes
    the [serve_cache_epoch] / [serve_cache_size] gauges, adds the sweep
    to [serve_cache_aged_out_total], and rewrites the metrics snapshot
    (atomic rename) when [snapshot_path] is set.

    {2 Graceful drain}

    When [stop] becomes true (the CLI sets it from SIGTERM/SIGINT) the
    daemon stops accepting, processes everything already admitted,
    flushes every response buffer (bounded by a few seconds), writes a
    final snapshot and returns with [drained = true]. In-flight clients
    get their answers; only connections that were mid-frame lose an
    unparseable prefix they never completed. *)

type config = {
  unix_path : string option;  (** listen on this Unix socket path *)
  tcp : (string * int) option;  (** and/or on host, port *)
  policy : Trust_serve.Cache.policy;
  cache_capacity : int;
  scheduler : Trust_serve.Scheduler.config;  (** per-request engine knobs *)
  max_pending : int;  (** admission bound; excess submissions get [busy] *)
  epoch_every : int;  (** served requests per cache epoch tick *)
  max_idle_epochs : int;  (** sweep entries idle this many epochs *)
  snapshot_path : string option;  (** metrics exposition, atomically rewritten *)
  trace_path : string option;
      (** durable trace sink: every {e kept} session (head-sampled or
          tail-promoted) appended as JSONL at close *)
  trace_ring : int;
      (** live trace-ring capacity in bytes ([0] disables tracing
          entirely when [trace_path] is also unset); drained by the
          [trace] wire request *)
  trace_sample : float;
      (** head-sampling rate over wire session ids — deterministic per
          {!Trust_obs.Sampler} under the scheduler seed. Unsampled
          requests run untraced on the compiled fast path; at close the
          tail keep rules ({!Trust_serve.Scheduler.tail_reason}) promote
          any session with an exposure violation, retry, expiry or lint
          refusal by re-running it with a live sink — determinism makes
          the replayed trace what head sampling would have recorded. *)
  mine_every : int;
      (** every N served requests, self-drain the ring, fold the kept
          sessions into the {!Trust_obs.Mine} scoreboard and apply the
          feedback policy (pin/pre-warm and deny below); [0] (the
          default) disables the loop. The drain consumes the same
          window the [trace] wire request reads. *)
  mine_pin : int;
      (** pin/pre-warm shapes with at least this many retry or expiry
          incidents on the scoreboard (and no exposure violations);
          [0] disables pinning *)
  mine_deny : int;
      (** deny-list shapes whose kept sessions include at least this
          many §5 exposure-violating runs; refused submissions answer
          [refused] with the [TM001] diagnostic. [0] disables. *)
  defect_every : int;
      (** fault injection for smokes and soaks: every N-th session's
          first defectable principal goes silent (the batch Service
          knob); [0] (the default) injects nothing *)
  banner : string;  (** the [server] field of the welcome *)
}

val default : config
(** No listeners (callers must set at least one), default policy and
    scheduler, capacity 4096, 64 pending, 1 MiB frames, epoch every
    256 requests, sweep after 2 idle epochs. Tracing is on by default
    at production cost: a 1 MiB ring, 1% head sampling, tail keeps
    always. *)

(** Read off the metrics registry: the [daemon_*] counters and the
    scheduler's [serve_sessions_*] counters. *)
type stats = {
  served : int;  (** submissions fully processed *)
  settled : int;
  expired : int;
  aborted : int;  (** includes parse/elaborate rejections *)
  busy : int;  (** submissions bounced by admission control *)
  protocol_errors : int;  (** handshake/framing/decode failures *)
  connections : int;  (** accepted over the lifetime *)
  epochs : int;  (** cache epoch ticks *)
  aged_out : int;  (** cache entries swept by aging *)
  cache_size : int;  (** resident entries at exit *)
  drained : bool;  (** the loop exited through the drain path *)
}

val run : ?stop:bool Atomic.t -> ?metrics:Trust_serve.Metrics.t -> config -> stats
(** Serve until [stop] is set (an internal atomic nobody sets, i.e.
    forever, when omitted). Creates a fresh metrics registry when none
    is given. @raise Invalid_argument when no listener is configured. *)

val stats_json : stats -> Trust_obs.Json.t
(** The counters above as one JSON object. *)
