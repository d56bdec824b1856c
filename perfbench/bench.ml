(* The trustseq benchmark: one command, three workloads, end-to-end
   metrics from untraced runs and a per-layer ledger from a traced
   in-process replay of the same inputs. See README.md. *)

module Cache = Trust_serve.Cache
module Scheduler = Trust_serve.Scheduler
module Service = Trust_serve.Service
module Metrics = Trust_serve.Metrics
module Shape = Trust_serve.Shape
module Universe = Workload.Universe
module Prng = Workload.Prng
module Wire = Trust_daemon.Wire

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  server : string;  (* the trustseq executable the daemon runs from *)
  smoke : bool;  (* small sizes, for the self-test *)
}

let usage =
  "bench.exe --workload batch-warm|daemon-zipf|daemon-defect --seed N --seconds S --trace 0|1 \
   [--server PATH] [--smoke]"

let parse_args () =
  let workload = ref "" and seed = ref 7 and seconds = ref 20 and trace = ref 0 in
  let server = ref "_build/default/bin/trustseq.exe" and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
      ("--server", Arg.Set_string server, "PATH trustseq executable");
      ("--smoke", Arg.Set smoke, " small sizes (self-test)");
      ( "--probe",
        Arg.Unit
          (fun () ->
            Printf.printf "%.17g\n" (Stats.probe ~domains:1);
            exit 0),
        " print one host probe sample (ms) and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = float_of_int !seconds;
    trace = !trace = 1;
    server = !server;
    smoke = !smoke;
  }

(* -- metrics -- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_sps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("rss_peak_mb", "MB");
  ]

let layer_names = [ "daemon"; "lang"; "core"; "analyze"; "sim"; "serve"; "obs" ]

let per_layer =
  [
    ("daemon.frame.us", "us");
    ("daemon.wire.us", "us");
    ("daemon.unaccounted_us", "us");
    ("daemon.open_loop.p50_ms", "ms");
    ("daemon.open_loop.p99_ms", "ms");
    ("loadgen.late_ms", "ms");
    ("lang.parse.us", "us");
    ("lang.elaborate.us", "us");
    ("lang.bytes", "bytes");
    ("core.sequencing.build.us", "us");
    ("core.reduce.us", "us");
    ("core.reduce.steps", "count");
    ("core.execution.us", "us");
    ("core.indemnity.rescue.us", "us");
    ("core.indemnity.rescues", "count");
    ("core.compile.us", "us");
    ("analyze.lint.quick.us", "us");
    ("analyze.static_exposure.us", "us");
    ("sim.harness.assemble.us", "us");
    ("sim.hotpath.exec.us", "us");
    ("sim.engine.run.us", "us");
    ("sim.exposure.us", "us");
    ("sim.audit.us", "us");
    ("sim.engine.events", "count");
    ("sim.interpreted_sessions", "count");
    ("serve.shape.hash.us", "us");
    ("serve.cache.admission.us", "us");
    ("serve.cache.hit.us", "us");
    ("serve.cache.miss.us", "us");
    ("serve.cache.hit_ratio", "ratio");
    ("serve.cache.evictions", "count");
    ("serve.cache.aged_out", "count");
    ("serve.scheduler.process_one.us", "us");
    ("serve.scheduler.retries", "count");
    ("serve.pool.worker_waits", "count");
    ("serve.pool.submit_waits", "count");
    ("obs.sampled", "count");
    ("obs.tail_replays", "count");
    ("obs.replay.us", "us");
    ("obs.ring.record.us", "us");
    ("obs.ring.bytes_per_kept", "bytes");
    ("gc.minor_words_per_session", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace.overhead_us", "us");
    ("ledger.accounted_ratio", "ratio");
  ]
  @ List.map (fun l -> ("ledger." ^ l ^ ".us_per_request", "us")) layer_names

(* What a workload measured, before it is printed. *)
type result = {
  attempted : int;
  failed : int;
  invalid : string list;  (* reasons the run cannot be trusted *)
  values : (string * float) list;
}

let json_number v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_result args r =
  let wanted = if args.trace then per_layer else end_to_end in
  let missing = ref [] in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name r.values with
          | Some v when Float.is_finite v -> v
          | _ ->
            missing := name :: !missing;
            0.
        in
        Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} name (json_number v) unit)
      wanted
  in
  List.iter (fun m -> Printf.printf "invalid: metric %s was not measured\n" m) !missing;
  List.iter (fun why -> Printf.printf "invalid: %s\n" why) r.invalid;
  let correct = r.failed = 0 && r.invalid = [] && !missing = [] in
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} correct r.attempted
    r.failed (String.concat "," metrics);
  print_newline ()

(* Set-up runs this many times in a run; [setup_s] is the median. *)
let setup_repeats args = if args.smoke then 1 else 5

(* -- report helpers -- *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

let report_summary name unit values =
  say "  %-22s %-5s %s" name unit (Format.asprintf "%a" Stats.pp_summary (Stats.summarize values))

let host () =
  Printf.sprintf "cores=%d os=%s word=%d ocaml=%s" (Domain.recommended_domain_count ())
    Sys.os_type Sys.word_size Sys.ocaml_version

let report_host probes scale =
  report_summary "host probe" "ms" probes;
  say "  reported times are scaled by %.4f (rates by its inverse): %.1f ms / probe median" scale
    Stats.reference_ms

(* End-to-end values at the reference host speed (see Stats.probe). *)
let scaled scale values =
  List.map
    (fun (name, v) ->
      match List.assoc_opt name end_to_end with
      | Some "s" | Some "ms" -> (name, v *. scale)
      | Some "1/s" -> (name, v /. scale)
      | _ -> (name, v))
    values

(* -- the per-layer ledger -- *)

type traced = {
  led : Ledger.t;
  requests : int;
  wall_ns : float;  (* the traced replay *)
  untraced_ns : float;  (* the same replay with no timers *)
}

let ledger_values t =
  let led = t.led in
  let n = float_of_int t.requests in
  let timed =
    List.filter_map
      (fun (name, _) ->
        if String.ends_with ~suffix:".us" name then
          Some (name, Ledger.mean_us led (Filename.chop_suffix name ".us"))
        else None)
      per_layer
  in
  let count name = float_of_int (Ledger.counted led name) in
  let hits = count "serve.cache.hits" and misses = count "serve.cache.misses" in
  let layers = Ledger.layers led in
  let accounted = Ledger.self_total led /. (t.wall_ns -. led.Ledger.excluded_ns) in
  say "ledger: %d requests, traced replay %.1f ms (probes excluded), untimed %.1f ms" t.requests
    ((t.wall_ns -. led.Ledger.excluded_ns) /. 1e6) (t.untraced_ns /. 1e6);
  say "  layer     self us/request  share";
  List.iter
    (fun (l, ns) ->
      say "  %-9s %15.3f  %5.1f%%" l (ns /. n /. 1e3) (100. *. ns /. Ledger.self_total led))
    layers;
  say "  name                              self us/request";
  List.iter (fun (name, ns) -> say "  %-33s %15.3f" name (ns /. n /. 1e3)) (Ledger.names led);
  say "  accounted for %.1f%% of the traced replay" (100. *. accounted);
  say "top layers by self time: %s"
    (String.concat ", " (List.map fst (List.filteri (fun i _ -> i < 3) layers)));
  timed
  @ List.map
      (fun name -> (name, count name))
      [
        "core.reduce.steps";
        "core.indemnity.rescues";
        "sim.engine.events";
        "sim.interpreted_sessions";
        "serve.scheduler.retries";
        "obs.sampled";
        "obs.tail_replays";
      ]
  @ [
      ("lang.bytes", count "lang.bytes" /. n);
      ("serve.cache.hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
      ("trace.overhead_us", ((t.wall_ns -. led.Ledger.excluded_ns) -. t.untraced_ns) /. n /. 1e3);
      ("ledger.accounted_ratio", accounted);
    ]
  @ List.map
      (fun l ->
        ( "ledger." ^ l ^ ".us_per_request",
          match List.assoc_opt l layers with Some ns -> ns /. n /. 1e3 | None -> 0. ))
      layer_names

let accounting_check values =
  match List.assoc_opt "ledger.accounted_ratio" values with
  | Some r when r >= 0.9 -> []
  | Some r -> [ Printf.sprintf "layer self times account for only %.1f%% of the traced wall" (100. *. r) ]
  | None -> [ "no ledger" ]

(* The two replays behind the ledger, each from a fresh start: traced,
   then untimed; the tracing overhead is the difference. [fresh] builds
   and warms the starting state; [pass] is the replayed work. *)
let ledger_replays ~fresh ~pass =
  let led = Ledger.create () in
  let run on =
    let state = fresh led in
    led.Ledger.on <- on;
    let t0 = Stats.now_ns () in
    let r = pass state in
    let wall = Stats.elapsed_ns t0 in
    led.Ledger.on <- false;
    (state, r, wall)
  in
  let traced = run true in
  let _, _, untraced_ns = run false in
  (led, traced, untraced_ns)

(* -- batch-warm -- *)

let pool_gauges metrics =
  List.fold_left
    (fun (w, s) line ->
      match String.split_on_char ' ' line with
      | [ "serve_pool_worker_waits"; v ] -> (float_of_string v, s)
      | [ "serve_pool_submit_waits"; v ] -> (w, float_of_string v)
      | _ -> (w, s))
    (0., 0.)
    (String.split_on_char '\n' (Metrics.volatile_text metrics))

let peak_rss_self_mb () =
  let status = In_channel.with_open_bin "/proc/self/status" In_channel.input_all in
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> None)
    (String.split_on_char '\n' status)
  |> Option.value ~default:0.

(* The batch process's peak RSS grows with every pass (each pass starts
   and stops its pool's domains), so it is read after a fixed number of
   passes, not at the end of a run whose pass count depends on speed. *)
let rss_passes = 500

let run_batch args =
  let sessions_n = if args.smoke then 200 else 2000 in
  let svc =
    {
      Service.default with
      Service.sessions = sessions_n;
      seed = Int64.of_int args.seed;
      drop_rate = 0.02;
      jobs = 2;
    }
  in
  let cfg =
    {
      Scheduler.concurrency = svc.Service.concurrency;
      jobs = svc.Service.jobs;
      session_deadline = svc.Service.session_deadline;
      latency = svc.Service.latency;
      max_events = svc.Service.max_events;
      drop_rate = svc.Service.drop_rate;
      retry = svc.Service.retry;
      seed = Shape.mix64 svc.Service.seed;
      compiled = true;
      sample_rate = 1.0;
    }
  in
  let warm_cache sessions =
    let cache = Cache.create ~capacity:svc.Service.cache_capacity Cache.default_policy in
    ignore (Scheduler.run cfg cache (Replay.fresh_sessions sessions));
    cache
  in
  let setup () =
    let t0 = Stats.now_ns () in
    let sessions = Service.sessions_of_config svc in
    let cache = warm_cache sessions in
    (Stats.seconds_since t0, (sessions, cache))
  in
  let setups = List.init (setup_repeats args) (fun _ -> setup ()) in
  let sessions, cache = snd (List.nth setups (List.length setups - 1)) in
  let expected = Replay.oracle_batch ~cfg sessions in
  let pass_ms = ref [] and mismatches = ref 0 and passes = ref 0 and rss = ref 0. in
  let waits = ref [] and minor_words = ref 0. and minor = ref 0 and major = ref 0 in
  let probe () = Stats.probe ~domains:cfg.Scheduler.jobs in
  let probes = ref [ probe () ] and last_probe = ref (Stats.now_ns ()) in
  let start = Stats.now_ns () in
  while !passes = 0 || Stats.seconds_since start < args.seconds do
    if Stats.seconds_since !last_probe > 0.5 then begin
      probes := probe () :: !probes;
      (* collect the probe's garbage now, not in the next timed pass *)
      ignore (Gc.major_slice 0 : int);
      last_probe := Stats.now_ns ()
    end;
    let batch = Replay.fresh_sessions sessions in
    let metrics = Metrics.create () in
    let g0 = Gc.quick_stat () in
    let t0 = Stats.now_ns () in
    ignore (Scheduler.run ~metrics cfg cache batch);
    let dt = Stats.elapsed_ns t0 in
    let g1 = Gc.quick_stat () in
    minor_words := !minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
    minor := !minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
    major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
    pass_ms := (dt /. 1e6) :: !pass_ms;
    if !passes = rss_passes then rss := peak_rss_self_mb ();
    waits := pool_gauges metrics :: !waits;
    List.iter2
      (fun s e -> if Replay.of_session s <> e then incr mismatches)
      batch expected;
    incr passes
  done;
  if !passes <= rss_passes then rss := peak_rss_self_mb ();
  let rss = !rss in
  let probes = Array.of_list !probes in
  let scale = Stats.host_scale probes in
  let pass_ms = Array.of_list (List.rev !pass_ms) in
  let sps = Array.map (fun ms -> float_of_int sessions_n /. (ms /. 1e3)) pass_ms in
  let setup_s = Array.of_list (List.map fst setups) in
  say "workload batch-warm seed %d: %d sessions x %d timed passes, jobs %d, drop rate %.2f" args.seed
    sessions_n !passes cfg.Scheduler.jobs cfg.Scheduler.drop_rate;
  say "host: %s" (host ());
  report_host probes scale;
  report_summary "setup_s" "s" setup_s;
  report_summary "throughput_sps" "1/s" sps;
  report_summary "pass latency" "ms" pass_ms;
  say "  rss_peak_mb %.1f (this process, after %d timed passes)" rss (min !passes (rss_passes + 1));
  let attempted = sessions_n * !passes in
  say "  sessions: attempted %d, oracle mismatches %d, fail_ratio %.6f" attempted !mismatches
    (float_of_int !mismatches /. float_of_int attempted);
  let pass_summary = Stats.summarize pass_ms in
  let e2e =
    scaled scale
      [
        ("setup_s", Stats.median setup_s);
        ("throughput_sps", Stats.median sps);
        ("latency_p50_ms", pass_summary.Stats.median);
        ("latency_p99_ms", pass_summary.Stats.p99);
        ("rss_peak_mb", rss);
      ]
  in
  let layer_values =
    if not args.trace then []
    else begin
      let reps = 3 in
      let led, (ctx, (), wall_ns), untraced_ns =
        ledger_replays
          ~fresh:(fun led ->
            let ctx = Replay.make_ctx led cfg in
            Replay.batch_pass ctx sessions;
            ctx)
          ~pass:(fun ctx ->
            for _ = 1 to reps do
              Replay.batch_pass ctx sessions
            done)
      in
      let n = float_of_int !passes in
      let sum f = List.fold_left (fun acc w -> acc +. f w) 0. !waits in
      ledger_values { led; requests = reps * sessions_n; wall_ns; untraced_ns }
      @ [
          ("serve.cache.evictions", float_of_int (Cache.evictions ctx.Replay.cache));
          ("serve.cache.aged_out", float_of_int (Cache.aged_out ctx.Replay.cache));
          ("serve.pool.worker_waits", sum fst /. n);
          ("serve.pool.submit_waits", sum snd /. n);
          ("gc.minor_words_per_session", !minor_words /. float_of_int attempted);
          ("gc.minor_collections", float_of_int !minor);
          ("gc.major_collections", float_of_int !major);
          ("daemon.unaccounted_us", 0.);
          ("daemon.open_loop.p50_ms", 0.);
          ("daemon.open_loop.p99_ms", 0.);
          ("loadgen.late_ms", 0.);
          ("obs.ring.bytes_per_kept", 0.);
        ]
    end
  in
  {
    attempted;
    failed = !mismatches;
    invalid = (if args.trace then accounting_check layer_values else []);
    values = e2e @ layer_values;
  }

(* -- the daemon workloads -- *)

type daemon_workload = {
  universe : Universe.config;
  defect_every : int;
  drop_rate : float;
  rate : float;
      (* phase (b) offered load, requests/s: about a quarter of the
         seed-7 phase (a) capacity on a 2-core host, measured once and
         fixed so that every later run offers the same load; the server
         still keeps up when the shared host runs at half speed *)
}

let daemon_zipf =
  { universe = Universe.default_config; defect_every = 0; drop_rate = 0.; rate = 500. }

let daemon_defect =
  { universe = Universe.defect_heavy; defect_every = 7; drop_rate = 0.02; rate = 300. }

let run_dir = ".perfbench-run"

(* The share of the measured seconds spent in the closed loop (phase a);
   the open loop (phase b) gets the rest. *)
let closed_share = 0.5

(* The server's peak RSS grows with the requests it has served, so it
   is read once the server has answered this many, not at the end of a
   run whose length in requests depends on speed. *)
let rss_requests = 8_000

(* Seeded Poisson arrivals over [seconds]. *)
let poisson rng ~rate ~seconds =
  let rec go t acc =
    let t = t -. (log (1. -. Prng.float rng) /. rate) in
    if t >= seconds then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

type inputs = { warm : Load.stream; a : Load.stream; b : Load.stream; due : float array }

(* The warm pass and phase (b) are generated in full at set-up; phase
   (a) is generated while it runs, as far as the server's speed takes
   it. *)
let daemon_inputs args wl =
  let universe = Universe.create wl.universe in
  let rng = Prng.create (Int64.of_int args.seed) in
  let warm_rng = Prng.split rng in
  let a_rng = Prng.split rng in
  let b_rng = Prng.split rng in
  let arrivals = Prng.split rng in
  let stream rng =
    Load.stream (fun () -> Trust_lang.Printer.to_string (Universe.sample universe rng))
  in
  let due = poisson arrivals ~rate:wl.rate ~seconds:((1. -. closed_share) *. args.seconds) in
  let warm = stream warm_rng and b = stream b_rng in
  Load.grow warm (if args.smoke then 64 else 256);
  Load.grow b (Array.length due);
  { warm; a = stream a_rng; b; due }

let outcome_of_response = function
  | Wire.Result r ->
    Some
      {
        Replay.status = r.status;
        ticks = r.ticks;
        events = r.events;
        attempts = r.attempts;
        peak = r.exposure_peak;
        risk_ticks = r.exposure_ticks;
        violations = r.exposure_violations;
      }
  | _ -> None

let run_daemon args name wl =
  let cfg = { Scheduler.default_config with Scheduler.drop_rate = wl.drop_rate } in
  let serve_args =
    if wl.defect_every > 0 then
      [ "--defect-every"; string_of_int wl.defect_every; "--drop-rate"; string_of_float wl.drop_rate ]
    else []
  in
  (* On two or more cores the server runs pinned to the last one, and
     the host probe is timed on that core, so that it measures the core
     the server runs on; the load generator keeps the others. *)
  let server_cpu, probe =
    let cores = Domain.recommended_domain_count () in
    match if cores >= 2 then Load.probe_on (cores - 1) else None with
    | Some _ ->
      let cpu = cores - 1 in
      ( Some cpu,
        fun () ->
          match Load.probe_on cpu with Some ms -> ms | None -> Stats.probe ~domains:1 )
    | None -> (None, fun () -> Stats.probe ~domains:1)
  in
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let live = ref [] in
  let spawn k =
    let base = Filename.concat run_dir (Printf.sprintf "%d-%d" (Unix.getpid ()) k) in
    let child =
      Load.spawn ?cpu:server_cpu ~exe:args.server ~socket:(base ^ ".sock") ~log:(base ^ ".log")
        serve_args
    in
    live := child :: !live;
    child
  in
  let drains = ref [] in
  let stop child =
    live := List.filter (fun c -> c != child) !live;
    let d = Load.stop child in
    (try Sys.remove child.Load.log with Sys_error _ -> ());
    drains := d :: !drains;
    d
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> ignore (stop c)) !live;
      try Sys.rmdir run_dir with Sys_error _ -> ())
    (fun () ->
      (* one set-up: inputs, server start, handshake, warm pass *)
      let setup k =
        let t0 = Stats.now_ns () in
        let inputs = daemon_inputs args wl in
        let child = spawn k in
        let conn = Load.connect child.Load.socket in
        let order = ref 0 in
        let warm = Load.tally () in
        ignore
          (Load.closed_loop conn inputs.warm warm ~order ~from:0 ~stop:inputs.warm.Load.length
             ~seconds:3600.);
        (Stats.seconds_since t0, (inputs, child, conn, order, warm))
      in
      let n_setups = setup_repeats args in
      let setups =
        List.init n_setups (fun k ->
            let ((_, (_, child, conn, _, _)) as s) = setup k in
            if k < n_setups - 1 then begin
              Load.close conn;
              ignore (stop child)
            end;
            s)
      in
      let inputs, child, conn, order, warm = snd (List.nth setups (n_setups - 1)) in
      let conn_b = Load.connect child.Load.socket in
      (* the two phases alternate in short rounds, so that each samples
         the host over the whole run rather than over half of it *)
      let rounds = if args.smoke then 1 else 10 in
      let a_seconds = closed_share *. args.seconds /. float_of_int rounds in
      let b_span = (1. -. closed_share) *. args.seconds /. float_of_int rounds in
      let phase_a = Load.tally () and phase_b = Load.tally () in
      let rss = ref None in
      let checkpoint =
        (rss_requests, fun () -> if !rss = None then rss := Some (Load.peak_rss_mb child))
      in
      let next_a = ref 0 and lo = ref 0 and probes = ref [ probe () ] in
      for r = 1 to rounds do
        next_a :=
          Load.closed_loop ~checkpoint conn inputs.a phase_a ~order ~from:!next_a ~stop:max_int
            ~seconds:a_seconds;
        let base = float_of_int (r - 1) *. b_span in
        let hi = ref !lo in
        while !hi < Array.length inputs.due && inputs.due.(!hi) < base +. b_span do
          incr hi
        done;
        Load.open_loop conn_b inputs.b phase_b ~order ~due_s:inputs.due ~lo:!lo ~hi:!hi ~base;
        lo := !hi;
        probes := probe () :: !probes
      done;
      let probes = Array.of_list !probes in
      let scale = Stats.host_scale probes in
      let rss = match !rss with Some mb -> mb | None -> Load.peak_rss_mb child in
      Load.close conn;
      Load.close conn_b;
      let drain = stop child in
      (* every answer against the interpreted oracle, in the order the
         server assigned session ids *)
      let answered =
        List.concat_map
          (fun (inputs, (t : Load.tally)) ->
            List.map (fun (n, i, r) -> (n, Load.text inputs i, r)) t.Load.answers)
          [ (inputs.warm, warm); (inputs.a, phase_a); (inputs.b, phase_b) ]
        |> List.sort compare
      in
      let expected =
        Replay.oracle_daemon ~cfg ~defect_every:wl.defect_every
          (List.map (fun (n, t, _) -> (n, t)) answered)
      in
      let mismatches = ref 0 and errors = ref 0 in
      List.iter2
        (fun (n, _, response) e ->
          let got = outcome_of_response response in
          if Option.map (fun o -> o.Replay.status) got = Some "error" then incr errors;
          if got <> Some e then begin
            incr mismatches;
            if !mismatches <= 3 then
              Printf.eprintf "oracle mismatch, session %d: expected %s, got %s\n%!" n
                (Format.asprintf "%a" Replay.pp_outcome e)
                (match got with
                | Some o -> Format.asprintf "%a" Replay.pp_outcome o
                | None -> "no result")
          end)
        answered expected;
      let phases = [ ("warm", warm); ("a", phase_a); ("b", phase_b) ] in
      let transport = List.fold_left (fun acc (_, p) -> acc + p.Load.failed) 0 phases in
      let attempted = List.fold_left (fun acc (_, p) -> acc + p.Load.sent) 0 phases in
      let drains_ok =
        List.for_all (fun d -> d.Load.exit_ok && d.Load.socket_removed && d.Load.drained) !drains
      in
      let failed = transport + !mismatches + !errors + if drains_ok then 0 else 1 in
      let lat_a = Stats.summarize (Load.latencies_ms phase_a) in
      let lat_b = Stats.summarize (Load.latencies_ms phase_b) in
      let late = Stats.summarize (Load.late_ms phase_b) in
      let capacity = float_of_int (Load.answered phase_a) /. phase_a.Load.elapsed_s in
      let setup_s = Array.of_list (List.map fst setups) in
      say "workload %s seed %d: server pid %d on %s, %d set-ups" name args.seed child.Load.pid
        (match server_cpu with Some c -> Printf.sprintf "core %d (probed there)" c | None -> "any core")
        n_setups;
      say "host: %s" (host ());
      report_host probes scale;
      report_summary "setup_s" "s" setup_s;
      List.iter
        (fun (label, (p : Load.tally)) ->
          say "  phase %-4s sent %d succeeded %d busy-retried %d failed %d in %.2f s" label
            p.Load.sent (Load.answered p) p.Load.busy_retries p.Load.failed p.Load.elapsed_s)
        phases;
      say "  phase a capacity %.1f answers/s" capacity;
      report_summary "phase a round trip" "ms" (Load.latencies_ms phase_a);
      say "  phase b offered %.0f req/s; %d rounds of both phases" wl.rate rounds;
      report_summary "phase b from due time" "ms" (Load.latencies_ms phase_b);
      report_summary "generator lateness" "ms" (Load.late_ms phase_b);
      say "  rss_peak_mb %.1f (server, once it had answered %d requests or at the end)" rss
        rss_requests;
      say "  drained: %s; oracle mismatches %d, error answers %d, fail_ratio %.6f"
        (if drains_ok then "every server exited 0 and removed its socket" else "NO")
        !mismatches !errors
        (float_of_int failed /. float_of_int (max 1 attempted));
      let e2e =
        scaled scale
          [
            ("setup_s", Stats.median setup_s);
            ("throughput_sps", capacity);
            ("latency_p50_ms", lat_a.Stats.median);
            ("latency_p99_ms", lat_a.Stats.p99);
            ("rss_peak_mb", rss);
          ]
      in
      let invalid =
        (if late.Stats.median > 1. then
           [ Printf.sprintf "the generator ran %.2f ms late at the median" late.Stats.median ]
         else [])
        @ if drains_ok then [] else [ "a server did not drain cleanly" ]
      in
      let layer_values =
        if not args.trace then []
        else begin
          let k = if args.smoke then 100 else 3000 in
          let w = inputs.warm.Load.length in
          let led, ((ctx, d), service, wall_ns), untraced_ns =
            ledger_replays
              ~fresh:(fun led ->
                let ctx = Replay.make_ctx led cfg in
                let d = Replay.make_daemon cfg ~defect_every:wl.defect_every in
                for i = 0 to w - 1 do
                  ignore (Replay.daemon_request ctx d ~session:i (Load.frame inputs.warm i) : float)
                done;
                (ctx, d))
              ~pass:(fun (ctx, d) ->
                Array.init k (fun i ->
                    Replay.daemon_request ctx d ~session:(w + i) (Load.frame inputs.a i)))
          in
          let gaps =
            List.filter_map
              (fun (i, ms) -> if i < k then Some ((ms *. 1e3) -. (service.(i) /. 1e3)) else None)
              phase_a.Load.latencies
          in
          let gc name = Option.value ~default:0. (List.assoc_opt name drain.Load.gc) in
          ledger_values { led; requests = k; wall_ns; untraced_ns }
          @ [
              ("daemon.unaccounted_us", (Stats.summarize (Array.of_list gaps)).Stats.mean);
              ("loadgen.late_ms", late.Stats.p99);
              ("daemon.open_loop.p50_ms", lat_b.Stats.median *. scale);
              ("daemon.open_loop.p99_ms", lat_b.Stats.p99 *. scale);
              ("serve.cache.evictions", float_of_int (Cache.evictions ctx.Replay.cache));
              ("serve.cache.aged_out", float_of_int (Cache.aged_out ctx.Replay.cache));
              ("serve.pool.worker_waits", 0.);
              ("serve.pool.submit_waits", 0.);
              ( "obs.ring.bytes_per_kept",
                if d.Replay.kept_clean = 0 then 0.
                else float_of_int d.Replay.kept_bytes /. float_of_int d.Replay.kept_clean );
              ("gc.minor_words_per_session", gc "minor_words" /. float_of_int (max 1 attempted));
              ("gc.minor_collections", gc "minor_collections");
              ("gc.major_collections", gc "major_collections");
            ]
        end
      in
      {
        attempted;
        failed;
        invalid = (invalid @ if args.trace then accounting_check layer_values else []);
        values = e2e @ layer_values;
      })

let () =
  let args = parse_args () in
  if not (Sys.file_exists args.server) then begin
    Printf.eprintf "bench: no trustseq executable at %s\n" args.server;
    exit 2
  end;
  let result =
    match args.workload with
    | "batch-warm" -> run_batch args
    | "daemon-zipf" -> run_daemon args "daemon-zipf" daemon_zipf
    | "daemon-defect" -> run_daemon args "daemon-defect" daemon_defect
    | w ->
      Printf.eprintf "bench: unknown workload %S\n%s\n" w usage;
      exit 2
  in
  print_result args result
