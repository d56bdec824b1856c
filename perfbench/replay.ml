(* In-process replays of the generated inputs: the interpreted oracle
   every timed answer is checked against, and the traced replay that
   fills the per-layer ledger. *)

module Cache = Trust_serve.Cache
module Scheduler = Trust_serve.Scheduler
module Session = Trust_serve.Session
module Shape = Trust_serve.Shape
module Metrics = Trust_serve.Metrics
module Obs = Trust_obs.Obs
module Ring = Trust_obs.Ring
module Harness = Trust_sim.Harness
module Frame = Trust_daemon.Frame
module Wire = Trust_daemon.Wire

(* -- outcomes -- *)

type outcome = {
  status : string;
  ticks : int;
  events : int;
  attempts : int;
  peak : int;
  risk_ticks : int;
  violations : int;
}

let of_session (s : Session.t) =
  {
    status = Session.status_label s.Session.status;
    ticks = s.Session.ticks;
    events = s.Session.events;
    attempts = s.Session.attempts;
    peak = s.Session.exposure_peak;
    risk_ticks = s.Session.exposure_ticks;
    violations = s.Session.exposure_violations;
  }

let error_outcome =
  { status = "error"; ticks = 0; events = 0; attempts = 0; peak = 0; risk_ticks = 0; violations = 0 }

let pp_outcome ppf o =
  Format.fprintf ppf "%s ticks=%d events=%d attempts=%d peak=%d risk_ticks=%d violations=%d"
    o.status o.ticks o.events o.attempts o.peak o.risk_ticks o.violations

(* The daemon's fault-injection rule ([serve --defect-every N]): the
   first defectable principal of every N-th session goes silent. *)
let daemon_defectors ~defect_every ~session spec =
  if defect_every > 0 && (session + 1) mod defect_every = 0 then
    match Harness.defectable_principals spec with
    | party :: _ -> [ (party, Harness.Silent) ]
    | [] -> []
  else []

(* -- the oracle: every outcome recomputed on the interpreted engine -- *)

let oracle_config cfg = { cfg with Scheduler.compiled = false; jobs = 1 }

let oracle_daemon ~cfg ~defect_every requests =
  let cfg = oracle_config cfg in
  let cache = Cache.create Cache.default_policy in
  List.map
    (fun (session, text) ->
      match Trust_lang.Elaborate.from_string ~file:"<wire>" text with
      | Error _ -> error_outcome
      | Ok spec ->
        let s =
          Session.make ~id:session ~defectors:(daemon_defectors ~defect_every ~session spec) spec
        in
        Scheduler.process_one cfg cache s;
        of_session s)
    requests

let fresh_sessions sessions =
  List.map
    (fun (s : Session.t) ->
      Session.make ~id:s.Session.id ~defectors:s.Session.defectors s.Session.spec)
    sessions

let oracle_batch ~cfg sessions =
  let sessions = fresh_sessions sessions in
  ignore (Scheduler.run (oracle_config cfg) (Cache.create Cache.default_policy) sessions);
  List.map of_session sessions

(* -- the traced replay -- *)

(* Scheduler's fault schedule (private there): a stateless hash of
   (seed, session, performed-action seq). Probes of a faulted run use
   it so they redo the run the session really made. *)
let drop_decision (cfg : Scheduler.config) ~session_id seq =
  let golden = 0x9E3779B97F4A7C15L and fold = 0xC2B2AE3D27D4EB4FL in
  let h =
    Shape.mix64
      (Int64.add cfg.Scheduler.seed
         (Int64.add
            (Int64.mul (Int64.of_int (session_id + 1)) golden)
            (Int64.mul (Int64.of_int (seq + 1)) fold)))
  in
  Shape.uniform h < cfg.Scheduler.drop_rate

(* A shadow of the cache's per-shard admission-lint memo, so a probe
   re-lints exactly the sessions whose real admission call linted. *)
type memo = { shards : (string, unit) Hashtbl.t array; bound : int }

let memo_create cache ~capacity =
  let n = Cache.shard_count cache in
  { shards = Array.init n (fun _ -> Hashtbl.create 64); bound = 4 * ((capacity + n - 1) / n) }

let memo_misses memo spec =
  (not (Shape.cacheable spec))
  ||
  let key = Shape.encode spec in
  let shard = memo.shards.((Int64.to_int (Shape.hash spec) land max_int) mod Array.length memo.shards) in
  if Hashtbl.mem shard key then false
  else begin
    if Hashtbl.length shard >= memo.bound then Hashtbl.reset shard;
    Hashtbl.add shard key ();
    true
  end

type ctx = {
  led : Ledger.t;
  cfg : Scheduler.config;
  cache : Cache.t;
  metrics : Metrics.t;
  memo : memo;
}

(* Both the daemon and the batch service default to this capacity. *)
let capacity = Trust_daemon.Server.default.Trust_daemon.Server.cache_capacity

let make_ctx led cfg =
  let cache = Cache.create ~capacity Cache.default_policy in
  {
    led;
    cfg;
    cache;
    metrics = Metrics.create ();
    memo = memo_create cache ~capacity;
  }

let is_lint_abort = function
  | Session.Aborted r -> String.length r >= 5 && String.sub r 0 5 = "lint:"
  | _ -> false

(* The feasibility analysis Harness.assemble and Feasibility.is_feasible
   run: sequencing graph, reduction, execution sequence. *)
let probe_analysis ctx parent ~shared spec =
  let led = ctx.led in
  let g =
    Ledger.probe_value led parent "core.sequencing.build" (fun () ->
        Trust_core.Sequencing.build ~granular:shared spec)
  in
  let outcome =
    Ledger.probe_value led parent "core.reduce" (fun () ->
        if shared then Trust_core.Reduce.run_shared g else Trust_core.Reduce.run g)
  in
  Ledger.count led "core.reduce.steps" (List.length outcome.Trust_core.Reduce.deletions);
  ignore
    (Ledger.probe_value led parent "core.execution" (fun () ->
         Trust_core.Execution.of_outcome outcome));
  Trust_core.Reduce.feasible outcome

(* Split a finished [process_one] into the layers it went through,
   following Cache.fresh and Scheduler's run path. *)
let probe_session ctx root ~sampled ~linted (session : Session.t) =
  let led = ctx.led and cache = ctx.cache and cfg = ctx.cfg in
  let probe name f = Ledger.probe_value led root name f in
  let spec = session.Session.spec in
  if linted then
    ignore (probe "analyze.lint.quick" (fun () -> Trust_analyze.Lint.check_spec ~deep:false spec));
  if not sampled then ignore (probe "serve.cache.admission" (fun () -> Cache.admission cache spec));
  if not (is_lint_abort session.Session.status) then begin
    let policy = Cache.policy cache in
    let shared = policy.Cache.shared in
    let verdict =
      if session.Session.cache_hit then
        fst (probe "serve.cache.hit" (fun () -> Cache.synthesize cache spec))
      else begin
        let verdict =
          if Shape.cacheable spec then
            fst (probe "serve.cache.miss" (fun () -> Cache.synthesize cache spec))
          else Ledger.aside led (fun () -> Cache.fresh policy spec)
        in
        (* Cache.fresh: feasibility check, rescue when stuck, assemble,
           static exposure, compile *)
        if policy.Cache.rescue && not (probe_analysis ctx root ~shared spec) then begin
          Ledger.count led "core.indemnity.rescues" 1;
          ignore
            (probe "core.indemnity.rescue" (fun () ->
                 Trust_core.Feasibility.rescue_with_indemnities ~shared spec))
        end;
        let plan = match verdict with Ok e -> e.Cache.plan | Error _ -> None in
        let assemble, asm =
          Ledger.probe led root "sim.harness.assemble" (fun () ->
              Harness.assemble ~mode:policy.Cache.mode ~shared ?plan spec)
        in
        (match assemble with
        | Ok cast -> ignore (probe_analysis ctx asm ~shared cast.Harness.spec)
        | Error _ -> ());
        Ledger.close led asm;
        (match verdict with
        | Ok e ->
          ignore
            (probe "analyze.static_exposure" (fun () ->
                 Trust_analyze.Static_exposure.analyze e.Cache.split_spec));
          if e.Cache.compiled <> None then
            ignore
              (probe "core.compile" (fun () ->
                   Trust_core.Compile.compile
                     ~lockstep:(policy.Cache.mode = Harness.Lockstep)
                     ~shared ?plan:e.Cache.plan
                     ~price:(Trust_sim.Trace.price_for e.Cache.split_spec)
                     e.Cache.split_spec e.Cache.protocol))
        | Error _ -> ());
        verdict
      end
    in
    match verdict with
    | Error _ -> ()
    | Ok entry ->
      let defectors = session.Session.defectors in
      let defector_parties = List.map fst defectors in
      let id = session.Session.id in
      for attempt = 1 to session.Session.attempts do
        let drops = attempt = 1 && cfg.Scheduler.drop_rate > 0. in
        match entry.Cache.compiled with
        | Some plan when cfg.Scheduler.compiled && not sampled ->
          let config =
            {
              Trust_sim.Hotpath.latency = cfg.Scheduler.latency;
              deadline = cfg.Scheduler.session_deadline;
              max_events = cfg.Scheduler.max_events;
              drop = (if drops then Some (drop_decision cfg ~session_id:id) else None);
            }
          in
          ignore
            (probe "sim.hotpath.exec" (fun () -> Trust_sim.Hotpath.exec ~config ~defectors plan))
        | Some _ | None ->
          (* sampled sessions carry spans through the interpreted engine *)
          let obs = if sampled then Obs.create () else Obs.null in
          let config =
            {
              Trust_sim.Engine.default_config with
              Trust_sim.Engine.latency = cfg.Scheduler.latency;
              deadline = cfg.Scheduler.session_deadline;
              max_events = cfg.Scheduler.max_events;
              drop =
                (if drops then Some (fun seq _ -> drop_decision cfg ~session_id:id seq) else None);
            }
          in
          let result =
            probe "sim.engine.run" (fun () ->
                let behaviors =
                  Harness.behaviors_for ~shared ?plan:entry.Cache.plan ~defectors
                    ~mode:policy.Cache.mode entry.Cache.split_spec entry.Cache.protocol
                in
                Harness.run_cast ~config ~obs
                  {
                    Harness.spec = entry.Cache.split_spec;
                    plan = entry.Cache.plan;
                    mode = policy.Cache.mode;
                    protocol = entry.Cache.protocol;
                    behaviors;
                  })
          in
          Ledger.count led "sim.engine.events" result.Trust_sim.Engine.events;
          ignore
            (probe "sim.exposure" (fun () ->
                 Trust_sim.Exposure.of_result ?plan:entry.Cache.plan ~defectors:defector_parties
                   entry.Cache.split_spec result));
          ignore
            (probe "sim.audit" (fun () ->
                 Trust_sim.Audit.audit ~obs spec ?plan:entry.Cache.plan
                   ~defectors:defector_parties result))
      done
  end

(* One session through [Scheduler.process_one], as the daemon and the
   batch scheduler run it; returns the real call's duration. *)
let serve_session ctx ~obs (session : Session.t) =
  let sampled = Obs.enabled obs in
  (* The spec's shape is memoized on first use, which the real call
     would otherwise do inside admission: force it as its own call. *)
  let (), shape =
    Ledger.call ctx.led "serve.shape.hash" (fun () ->
        ignore (Shape.hash session.Session.spec : int64))
  in
  Ledger.close ctx.led shape;
  let linted = Ledger.aside ctx.led (fun () -> sampled || memo_misses ctx.memo session.Session.spec) in
  let (), root =
    Ledger.call ctx.led "serve.scheduler.process_one" (fun () ->
        Scheduler.process_one ~metrics:ctx.metrics ~obs ctx.cfg ctx.cache session)
  in
  let led = ctx.led in
  if led.Ledger.on then begin
    Ledger.aside led (fun () -> probe_session ctx root ~sampled ~linted session);
    Ledger.settle led;
    Ledger.count led (if session.Session.cache_hit then "serve.cache.hits" else "serve.cache.misses") 1;
    if session.Session.attempts > 1 then Ledger.count led "serve.scheduler.retries" 1;
    if sampled then Ledger.count led "sim.interpreted_sessions" 1
  end;
  Ledger.close led root;
  shape.Ledger.dt +. root.Ledger.dt

(* The batch replay: the warm cache, one session at a time. *)
let batch_pass ctx sessions =
  List.iter
    (fun s -> ignore (serve_session ctx ~obs:Obs.null s : float))
    (Ledger.aside ctx.led (fun () -> fresh_sessions sessions))

(* What the daemon keeps besides its cache, at Server's defaults: the
   trace ring, the sampling rate and the epoch clock. *)
type daemon = {
  ring : Ring.t;
  sample_cfg : Scheduler.config;
  defect_every : int;
  epoch_every : int;
  mutable served : int;
  mutable kept_bytes : int;
  mutable kept_clean : int;  (* records committed without eviction *)
}

let make_daemon cfg ~defect_every =
  {
    ring = Ring.create ~capacity:Trust_daemon.Server.default.Trust_daemon.Server.trace_ring ();
    sample_cfg =
      { cfg with Scheduler.sample_rate = Trust_daemon.Server.default.Trust_daemon.Server.trace_sample };
    defect_every;
    epoch_every = Trust_daemon.Server.default.Trust_daemon.Server.epoch_every;
    served = 0;
    kept_bytes = 0;
    kept_clean = 0;
  }

(* The daemon's per-request path (Server.process_submit), from frame
   bytes in to frame bytes out. Returns the request's service time: the
   sum of its real calls, in ns. *)
let daemon_request ctx d ~session:n bytes =
  let led = ctx.led in
  let total = ref 0. in
  let call name f =
    let r, node = Ledger.call led name f in
    Ledger.close led node;
    total := !total +. node.Ledger.dt;
    r
  in
  let decoder = Frame.create () in
  let payload =
    match call "daemon.frame" (fun () -> Frame.feed_string decoder bytes) with
    | [ Frame.Frame p ] -> p
    | _ -> failwith "replay: request bytes are not one frame"
  in
  let id, text =
    match call "daemon.wire" (fun () -> Wire.decode_request payload) with
    | Ok (Wire.Submit { id; spec }) -> (id, spec)
    | _ -> failwith "replay: request is not a submission"
  in
  Ledger.count led "lang.bytes" (String.length text);
  let parsed =
    match call "lang.parse" (fun () -> Trust_lang.Parser.parse text) with
    | Error _ -> None
    | Ok ast -> (
      match call "lang.elaborate" (fun () -> Trust_lang.Elaborate.program ast) with
      | Ok spec -> Some spec
      | Error _ -> None)
  in
  let response =
    match parsed with
    | None -> Wire.Refused { id = Some id; reason = "parse" }
    | Some spec ->
      let sampled = Scheduler.session_sampled d.sample_cfg n in
      let obs = if sampled then Obs.create ~session:n () else Obs.null in
      let session =
        Session.make ~id:n ~defectors:(daemon_defectors ~defect_every:d.defect_every ~session:n spec) spec
      in
      total := !total +. serve_session ctx ~obs session;
      if sampled then Ledger.count led "obs.sampled" 1;
      (match Scheduler.keep_decision ~sampled session with
      | None -> ()
      | Some keep ->
        let trace =
          if sampled then obs
          else begin
            Ledger.count led "obs.tail_replays" 1;
            Ledger.count led "sim.interpreted_sessions" 1;
            let live = Obs.create ~session:n () in
            (* the replay reruns the session interpreted, with spans:
               probes split off the layers it runs again *)
            let replayed, node =
              Ledger.call led "obs.replay" (fun () -> Scheduler.replay ctx.cfg ctx.cache live session)
            in
            if led.Ledger.on then begin
              Ledger.aside led (fun () ->
                  probe_session ctx node ~sampled:true ~linted:true replayed);
              Ledger.settle led
            end;
            Ledger.close led node;
            total := !total +. node.Ledger.dt;
            live
          end
        in
        let before = Ledger.aside led (fun () -> Ring.bytes_resident d.ring) in
        let evicted =
          call "obs.ring.record" (fun () ->
              Obs.attr trace (Obs.first_root trace) "keep" (Obs.Str (Ring.keep_label keep));
              Ring.record d.ring ~keep trace)
        in
        if evicted = 0 then
          Ledger.aside led (fun () ->
              d.kept_bytes <- d.kept_bytes + Ring.bytes_resident d.ring - before;
              d.kept_clean <- d.kept_clean + 1));
      Wire.Result
        {
          id;
          status = Session.status_label session.Session.status;
          exit_code = 0;
          cache_hit = session.Session.cache_hit;
          ticks = session.Session.ticks;
          events = session.Session.events;
          attempts = session.Session.attempts;
          exposure_peak = session.Session.exposure_peak;
          exposure_ticks = session.Session.exposure_ticks;
          exposure_violations = session.Session.exposure_violations;
          reason = None;
        }
  in
  let payload = call "daemon.wire" (fun () -> Wire.encode_response response) in
  ignore (call "daemon.frame" (fun () -> Frame.encode payload) : string);
  d.served <- d.served + 1;
  if d.epoch_every > 0 && d.served mod d.epoch_every = 0 then
    ignore
      (call "serve.cache.epoch" (fun () ->
           Cache.advance_epoch
             ~max_idle:Trust_daemon.Server.default.Trust_daemon.Server.max_idle_epochs ctx.cache));
  !total
