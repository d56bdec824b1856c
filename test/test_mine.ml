(* The trace-mining advisor and its feedback hooks: offline (TSR1 ring
   dump) and online (decoded JSONL) folds must produce byte-identical
   scoreboards, the scoreboard is byte-identical at any --jobs, the
   candidate lists obey their contracts over a 200-spec fault-injected
   corpus, and the Serve.Cache policy surface — pin, deny, pre-warm —
   does what the daemon's --mine-* flags rely on. *)

module Obs = Trust_obs.Obs
module Ring = Trust_obs.Ring
module Analysis = Trust_obs.Analysis
module Mine = Trust_obs.Mine
module Service = Trust_serve.Service
module Scheduler = Trust_serve.Scheduler
module Session = Trust_serve.Session
module Cache = Trust_serve.Cache
module Metrics = Trust_serve.Metrics
module Shape = Trust_serve.Shape
module Gen = Workload.Gen
module Prng = Workload.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let decode_exn dump =
  match Ring.decode dump with
  | Ok r -> r
  | Error e -> Alcotest.fail ("ring decode failed: " ^ e)

(* a fault-injected batch with everything traced into a ring big
   enough that nothing wraps: drops produce retries, defectors produce
   expiries and exposure violations *)
let batch ?(sessions = 60) ?(jobs = 1) ?(seed = 19L) () =
  Service.run
    {
      Service.default with
      Service.sessions;
      seed;
      jobs;
      drop_rate = 0.08;
      defect_every = Some 7;
      sample_rate = 1.0;
      trace_ring = 1 lsl 22;
    }

let ring_sessions outcome =
  match outcome.Service.ring with
  | None -> Alcotest.fail "expected a ring sink"
  | Some ring ->
    let ss, stats = decode_exn (Ring.dump ring) in
    check_int "mining corpus must not wrap" 0 stats.Ring.d_dropped;
    ss

(* -- offline/online parity: the dump fold and the JSONL fold agree -- *)

let test_offline_online_parity () =
  let ss = ring_sessions (batch ()) in
  let offline = Mine.of_sessions ss in
  let online =
    match Analysis.of_jsonl (Ring.export Obs.Jsonl ss) with
    | Ok a -> Mine.of_views (Analysis.views a)
    | Error e -> Alcotest.fail ("jsonl re-parse failed: " ^ e)
  in
  check "parity corpus is non-trivial" true (Mine.sessions offline > 0);
  check_string "scoreboard JSON identical across transports" (Mine.json offline)
    (Mine.json online);
  check_string "scoreboard table identical across transports" (Mine.table offline)
    (Mine.table online)

(* -- determinism: byte-identical scoreboards at jobs 1 vs 4 -- *)

let test_jobs_identity () =
  let a = Mine.of_sessions (ring_sessions (batch ~jobs:1 ())) in
  let b = Mine.of_sessions (ring_sessions (batch ~jobs:4 ())) in
  check_string "scoreboard byte-identical at jobs 1 vs 4" (Mine.json a) (Mine.json b)

(* -- the scoreboard contract over a 200-spec corpus with injected
   drops and defectors -- *)

let test_scoreboard_property_200 () =
  let outcome = batch ~sessions:200 ~seed:5L () in
  let board = Mine.of_sessions (ring_sessions outcome) in
  let rows = Mine.rows board in
  check "corpus produced rows" true (rows <> []);
  (* folded sessions account exactly for the rows *)
  check_int "row sessions sum to the total" (Mine.sessions board)
    (List.fold_left (fun acc (r : Mine.row) -> acc + r.Mine.sessions) 0 rows);
  check_int "shape count matches the rows" (Mine.shapes board) (List.length rows);
  List.iter
    (fun (r : Mine.row) ->
      let keeps =
        r.Mine.k_sampled + r.Mine.k_violation + r.Mine.k_retry + r.Mine.k_expiry
        + r.Mine.k_lint
      in
      check_int ("keeps partition sessions for " ^ r.Mine.shape) r.Mine.sessions keeps;
      check_int
        ("statuses partition sessions for " ^ r.Mine.shape)
        r.Mine.sessions
        (r.Mine.settled + r.Mine.expired + r.Mine.aborted);
      check ("rates lie in [0,1] for " ^ r.Mine.shape) true
        (Mine.retry_rate r >= 0. && Mine.retry_rate r <= 1.
        && Mine.expiry_rate r >= 0.
        && Mine.expiry_rate r <= 1.);
      check ("attempts cover sessions for " ^ r.Mine.shape) true
        (r.Mine.attempts >= r.Mine.sessions))
    rows;
  (* severity ordering: violating shapes first, strictly non-increasing *)
  let rec ordered = function
    | (a : Mine.row) :: (b : Mine.row) :: rest ->
      check "rows ordered by violating sessions" true
        (a.Mine.violation_sessions >= b.Mine.violation_sessions);
      ordered (b :: rest)
    | _ -> ()
  in
  ordered rows;
  (* the candidate lists partition cleanly: a deny candidate is never a
     pin candidate, and every pin candidate is violation-free *)
  let pins = Mine.pin_candidates ~min_incidents:1 board in
  let denies = Mine.deny_candidates ~min_violations:1 board in
  check "fault injection produced pin candidates" true (pins <> []);
  check "fault injection produced deny candidates" true (denies <> []);
  List.iter
    (fun hex ->
      check ("pin candidate " ^ hex ^ " not denied") false (List.mem hex denies);
      match List.find_opt (fun (r : Mine.row) -> r.Mine.shape = hex) rows with
      | None -> Alcotest.fail ("pin candidate " ^ hex ^ " has no row")
      | Some r -> check ("pin candidate " ^ hex ^ " violation-free") true
                    (r.Mine.violation_sessions = 0))
    pins;
  (* folding is associative in the add_views sense: one pass over the
     whole corpus equals incremental accumulation *)
  let ss = ring_sessions outcome in
  let incremental =
    List.fold_left (fun acc s -> Mine.add_views acc s.Ring.s_views) Mine.empty ss
  in
  check_string "incremental fold equals whole-corpus fold"
    (Mine.json (Mine.of_sessions ss))
    (Mine.json incremental)

(* -- ring pressure surfacing: partially evicted sessions counted -- *)

let test_wrapped_sessions_counted () =
  let ring = Ring.create ~capacity:2048 () in
  let saw_skip = ref false in
  for i = 0 to 149 do
    let obs = Obs.create ~session:i () in
    Obs.with_span obs ~phase:"p" (Printf.sprintf "s%d" i) (fun root ->
        (* vary the record size so eviction boundaries land mid-session *)
        Obs.attr obs root "pad" (Obs.Str (String.make (8 + (17 * i mod 96)) 'x')));
    ignore (Ring.record ring ~keep:Ring.Sampled obs : int);
    let _, stats = decode_exn (Ring.dump ring) in
    if stats.Ring.d_skipped > 0 then saw_skip := true;
    (* whole-record oldest-first eviction leaves at most one dangling
       end per shard; this ring has a single shard *)
    check "at most one wrapped session per shard" true (stats.Ring.d_skipped <= 1)
  done;
  check "eviction mid-session is observable via d_skipped" true !saw_skip

(* -- the cache policy surface: pin, deny, pre-warm -- *)

let spec_a = Gen.chain ~brokers:2
let spec_b = Gen.bundle ~docs:2

let test_pin_survives_eviction_and_aging () =
  let cache = Cache.create ~capacity:1 ~shards:1 Cache.default_policy in
  (match Cache.synthesize cache spec_a with
  | Ok _, _ -> ()
  | Error e, _ -> Alcotest.fail e);
  let hex = Shape.hash_hex spec_a in
  check "pin finds the resident entry" true (Cache.pin cache hex);
  check_int "pinned gauge" 1 (Cache.pinned_count cache);
  (* capacity 1: inserting a second shape must evict something, and it
     cannot be the pinned entry *)
  (match Cache.synthesize cache spec_b with
  | Ok _, _ -> ()
  | Error e, _ -> Alcotest.fail e);
  (match Cache.synthesize cache spec_a with
  | Ok _, `Hit -> ()
  | Ok _, (`Miss | `Bypass) -> Alcotest.fail "pinned entry was evicted"
  | Error e, _ -> Alcotest.fail e);
  (* epoch aging sweeps idle entries but never a pinned one *)
  for _ = 1 to 5 do
    ignore (Cache.advance_epoch ~max_idle:1 cache : int)
  done;
  (match Cache.synthesize cache spec_a with
  | Ok _, `Hit -> ()
  | Ok _, (`Miss | `Bypass) -> Alcotest.fail "pinned entry was aged out"
  | Error e, _ -> Alcotest.fail e);
  (* the same sweeps age out an entry nobody pinned *)
  let roomy = Cache.create ~shards:1 Cache.default_policy in
  ignore (Cache.synthesize roomy spec_b);
  for _ = 1 to 5 do
    ignore (Cache.advance_epoch ~max_idle:1 roomy : int)
  done;
  match Cache.synthesize roomy spec_b with
  | Ok _, `Miss -> ()
  | Ok _, (`Hit | `Bypass) -> Alcotest.fail "unpinned entry should age out normally"
  | Error e, _ -> Alcotest.fail e

let test_deny_and_allow () =
  let cache = Cache.create Cache.default_policy in
  let hex = Shape.hash_hex spec_a in
  check "nothing denied initially" true (Cache.denied_reason cache spec_a = None);
  Cache.deny cache hex;
  check "deny list carries the shape" true (Cache.denied cache = [ hex ]);
  (match Cache.denied_reason cache spec_a with
  | None -> Alcotest.fail "denied shape must refuse"
  | Some reason ->
    check "reason carries the denied: prefix" true
      (String.length reason >= 7 && String.sub reason 0 7 = "denied:");
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
      at 0
    in
    check "reason carries the diagnostic code" true
      (contains reason "[TM001]");
    check "reason names the shape" true (contains reason hex));
  check "other shapes unaffected" true (Cache.denied_reason cache spec_b = None);
  check "allow lifts the deny" true (Cache.allow cache hex);
  check "allow of an unknown shape is false" false (Cache.allow cache hex);
  check "lifted shape admits again" true (Cache.denied_reason cache spec_a = None)

let test_prewarm () =
  let cache = Cache.create Cache.default_policy in
  (match Cache.prewarm cache spec_a with
  | `Warmed -> ()
  | `Hit -> Alcotest.fail "cold cache cannot hit"
  | `Failed e -> Alcotest.fail e
  | `Uncacheable -> Alcotest.fail "chain2 is cacheable");
  check_int "pre-warm pins" 1 (Cache.pinned_count cache);
  (match Cache.prewarm cache spec_a with
  | `Hit -> ()
  | `Warmed | `Failed _ | `Uncacheable -> Alcotest.fail "second pre-warm must hit");
  (* the pre-warmed entry serves the first real synthesis as a hit *)
  match Cache.synthesize cache spec_a with
  | Ok _, `Hit -> ()
  | Ok _, (`Miss | `Bypass) -> Alcotest.fail "pre-warmed entry must hit"
  | Error e, _ -> Alcotest.fail e

(* -- the scheduler refuses denied shapes with the TM001 diagnostic -- *)

let test_scheduler_denies () =
  let cache = Cache.create Cache.default_policy in
  Cache.deny cache (Shape.hash_hex spec_a);
  let s = Session.make ~id:1 spec_a in
  let metrics = Metrics.create () in
  Scheduler.process_one ~metrics Scheduler.default_config cache s;
  (match s.Session.status with
  | Session.Aborted r ->
    check "abort reason is the deny diagnostic" true
      (String.length r >= 7 && String.sub r 0 7 = "denied:")
  | _ -> Alcotest.fail "denied session must abort");
  let count name = Metrics.value (Metrics.counter metrics name) in
  check_int "the refusal was counted" 1 (count "serve_admission_denied_total");
  check_int "not as a lint rejection" 0 (count "serve_sessions_lint_rejected_total");
  (* an undenied spec still runs normally through the same cache *)
  let ok = Session.make ~id:2 spec_b in
  Scheduler.process_one Scheduler.default_config cache ok;
  check "other shapes unaffected" true (ok.Session.status = Session.Settled)

let () =
  Alcotest.run "mine"
    [
      ( "scoreboard",
        [
          Alcotest.test_case "offline/online parity" `Quick test_offline_online_parity;
          Alcotest.test_case "jobs identity" `Quick test_jobs_identity;
          Alcotest.test_case "200-spec property" `Quick test_scoreboard_property_200;
        ] );
      ( "ring pressure",
        [ Alcotest.test_case "wrapped sessions counted" `Quick test_wrapped_sessions_counted ] );
      ( "cache policy",
        [
          Alcotest.test_case "pin survives eviction and aging" `Quick
            test_pin_survives_eviction_and_aging;
          Alcotest.test_case "deny and allow" `Quick test_deny_and_allow;
          Alcotest.test_case "pre-warm" `Quick test_prewarm;
        ] );
      ( "admission",
        [ Alcotest.test_case "scheduler refuses denied shapes" `Quick test_scheduler_denies ] );
    ]
