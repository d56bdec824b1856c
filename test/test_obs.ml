(* The tracing layer: null-sink cost model, exporter shape, the reduce
   profiler, and the two determinism properties the contract promises —
   tracing never perturbs results, and span sets are byte-identical at
   any --jobs. *)

module Obs = Trust_obs.Obs
module Harness = Trust_sim.Harness
module Engine = Trust_sim.Engine
module Audit = Trust_sim.Audit
module Service = Trust_serve.Service
module Session = Trust_serve.Session
module Reduce = Trust_core.Reduce
module Sequencing = Trust_core.Sequencing
module Gen = Workload.Gen
module Prng = Workload.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec at i = i + k <= n && (String.sub haystack i k = needle || at (i + 1)) in
  at 0

let count haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec at i acc =
    if i + k > n then acc
    else at (i + 1) (if String.sub haystack i k = needle then acc + 1 else acc)
  in
  at 0 0

(* -- the null sink records nothing and exports nothing -- *)

let test_null_sink () =
  let obs = Obs.null in
  check "null is disabled" false (Obs.enabled obs);
  let h = Obs.span obs ~phase:"x" "y" in
  Obs.event obs h "e";
  Obs.attr obs h "k" (Obs.Int 1);
  Obs.finish obs h;
  check_string "empty jsonl" "" (Obs.export Obs.Jsonl [ obs ]);
  check_string "empty chrome array" "[]\n" (Obs.export Obs.Chrome [ obs ]);
  check_string "empty tree" "" (Obs.export Obs.Tree [ obs ]);
  check_string "empty folded" "" (Obs.export Obs.Folded [ obs ])

(* -- virtual timestamps: identical op sequences export byte-identically -- *)

let build_trace () =
  let obs = Obs.create ~session:7 () in
  Obs.with_span obs ~phase:"pipeline" "root" (fun root ->
      Obs.attr obs root "k" (Obs.Str "v");
      Obs.with_span obs ~parent:root ~phase:"inner" "child" (fun child ->
          Obs.event obs child ~attrs:[ ("n", Obs.Int 3) ] "tick"));
  obs

let test_deterministic_export () =
  let a = build_trace () and b = build_trace () in
  List.iter
    (fun fmt ->
      check_string "same ops, same bytes" (Obs.export fmt [ a ]) (Obs.export fmt [ b ]))
    [ Obs.Jsonl; Obs.Chrome; Obs.Tree; Obs.Folded ]

let test_volatile_attrs_never_exported () =
  let obs = Obs.create () in
  Obs.with_span obs ~phase:"p" "s" (fun h ->
      Obs.attr obs h "stable" (Obs.Int 1);
      Obs.volatile_attr obs h "racy" (Obs.Bool true));
  List.iter
    (fun fmt ->
      let out = Obs.export fmt [ obs ] in
      check "deterministic attr exported" true (contains out "stable");
      check "volatile attr quarantined" false (contains out "racy"))
    [ Obs.Jsonl; Obs.Chrome; Obs.Tree ]

(* -- exporter edge cases, across every format -- *)

let all_formats = [ Obs.Jsonl; Obs.Chrome; Obs.Tree; Obs.Folded ]

let test_format_of_string () =
  List.iter2
    (fun name fmt ->
      check (name ^ " parses") true (Obs.format_of_string name = Some fmt);
      check (name ^ " case-insensitive") true
        (Obs.format_of_string (String.uppercase_ascii name) = Some fmt))
    Obs.format_names all_formats;
  check "unknown format rejected" true (Obs.format_of_string "flamegraph" = None);
  check "empty string rejected" true (Obs.format_of_string "" = None)

let test_export_empty_trace_list () =
  List.iter
    (fun fmt ->
      let out = Obs.export fmt [] in
      match fmt with
      | Obs.Chrome -> check_string "chrome empty array" "[]\n" out
      | Obs.Jsonl | Obs.Tree | Obs.Folded -> check_string "empty output" "" out)
    all_formats

let test_export_zero_span_trace () =
  let obs = Obs.create ~session:5 () in
  check_string "jsonl empty" "" (Obs.export Obs.Jsonl [ obs ]);
  check_string "chrome empty array" "[]\n" (Obs.export Obs.Chrome [ obs ]);
  check_string "folded empty" "" (Obs.export Obs.Folded [ obs ]);
  (* the tree keeps its banner, so an empty trace is still visible *)
  check_string "tree banner only" "trace session=5 (vt 0..0)\n" (Obs.export Obs.Tree [ obs ])

let test_event_on_finished_span () =
  let obs = Obs.create () in
  let h = Obs.span obs ~phase:"p" "s" in
  Obs.finish obs h;
  Obs.event obs h "late";
  List.iter
    (fun fmt ->
      let out = Obs.export fmt [ obs ] in
      check "late event still attributed to its span" true
        (fmt = Obs.Folded || contains out "late"))
    all_formats;
  (* folded self time stays non-negative even though the event ticked
     the clock after the span closed *)
  let folded = Obs.export Obs.Folded [ obs ] in
  check "no negative self time" false (contains folded "-")

let test_deep_nesting () =
  let obs = Obs.create () in
  let rec nest parent depth =
    if depth < 50 then
      Obs.with_span obs ?parent ~phase:"deep" (Printf.sprintf "d%d" depth) (fun h ->
          nest (Some h) (depth + 1))
  in
  nest None 0;
  List.iter
    (fun fmt -> check "deepest span exported" true (contains (Obs.export fmt [ obs ]) "d49"))
    all_formats;
  let folded = Obs.export Obs.Folded [ obs ] in
  let deepest =
    List.find_opt (fun l -> contains l "d49") (String.split_on_char '\n' folded)
  in
  (match deepest with
  | None -> Alcotest.fail "no folded line for the deepest span"
  | Some line -> check_int "50 frames on the deepest stack" 50 (count line ";" + 1));
  (* every span is open-ended (finished by with_span) and non-negative *)
  check "counts parse" true
    (List.for_all
       (fun line ->
         line = ""
         ||
         match String.rindex_opt line ' ' with
         | None -> false
         | Some i ->
           int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) <> None)
       (String.split_on_char '\n' folded))

let test_escaping () =
  let obs = Obs.create () in
  Obs.with_span obs ~phase:"p; q" "name with space" (fun h ->
      Obs.attr obs h "quote" (Obs.Str "a\"b\\c\nd");
      Obs.with_span obs ~parent:h ~phase:"p" "semi;colon" (fun _ -> ()));
  let jsonl = Obs.export Obs.Jsonl [ obs ] in
  check "json string escaped" true (contains jsonl "a\\\"b\\\\c\\nd");
  check "jsonl parses back" true
    (match Trust_obs.Analysis.of_jsonl jsonl with Ok _ -> true | Error _ -> false);
  let folded = Obs.export Obs.Folded [ obs ] in
  check "frame semicolon escaped" true (contains folded "semi\\;colon");
  check "frame spaces flattened" true (contains folded "name_with_space");
  let chrome = Obs.export Obs.Chrome [ obs ] in
  check "chrome is one json document" true
    (String.length chrome >= 3 && chrome.[0] = '[')

(* -- the reduce profiler: per-rule counters and the deletion timeline -- *)

let test_reduce_profiler () =
  let g = Sequencing.build Workload.Scenarios.example1 in
  let obs = Obs.create () in
  let outcome = Reduce.run ~obs g in
  check "example1 feasible" true (Reduce.feasible outcome);
  let out = Obs.export Obs.Jsonl [ obs ] in
  check "reduce span present" true (contains out "\"phase\":\"reduce\"");
  check_int "one delete event per deletion" (List.length outcome.Reduce.deletions)
    (count out "\"name\":\"delete\"");
  (* example1 (Fig. 5): three rule-1 and three rule-2 deletions *)
  check "rule1 counter" true (contains out "\"rule1\":3");
  check "rule2 counter" true (contains out "\"rule2\":3");
  check "steps counter" true (contains out "\"steps\":6");
  check "worklist pushes profiled" true (contains out "\"worklist_pushes\":");
  check "verdict attr" true (contains out "\"verdict\":\"feasible\"")

(* -- property: tracing on leaves every result byte-identical -- *)

let engine_digest r = Format.asprintf "%a" Engine.pp_result r

let test_tracing_is_passive () =
  let rng = Prng.create 77L in
  let specs = Gen.random_transactions rng Gen.default_mix 100 in
  List.iteri
    (fun i spec ->
      let quiet = Harness.honest_run spec in
      let obs = Obs.create ~session:i () in
      let traced =
        Obs.with_span obs ~phase:"pipeline" "root" (fun root ->
            Harness.honest_run ~obs ~parent:root spec)
      in
      match (quiet, traced) with
      | Error a, Error b -> check_string "same infeasibility" a b
      | Ok a, Ok b ->
        check_string "same engine result" (engine_digest a) (engine_digest b);
        check_string "same audit"
          (Format.asprintf "%a" Audit.pp_report (Audit.audit spec a))
          (Format.asprintf "%a" Audit.pp_report
             (Audit.audit ~obs ~parent:(Obs.first_root obs) spec b))
      | Ok _, Error _ | Error _, Ok _ ->
        Alcotest.fail (Printf.sprintf "spec %d: verdict diverged with tracing on" i))
    specs

(* -- the serve layer: trace on/off parity, and jobs-independence of spans -- *)

let batch ~jobs ~trace =
  Service.run
    {
      Service.default with
      Service.sessions = 60;
      seed = 19L;
      concurrency = 4;
      jobs;
      drop_rate = 0.05;
      defect_every = Some 8;
      trace;
    }

(* the obs_* sampling counters are the one legitimate snapshot
   difference: tracing on head-samples sessions, tracing off samples
   none. Everything else must stay byte-identical. *)
let scrub_obs_counters json =
  let b = Buffer.create (String.length json) in
  let n = String.length json in
  let is_obs i = i + 5 <= n && String.sub json i 5 = "\"obs_" in
  let rec go i =
    if i < n then
      if is_obs i then begin
        let rec skip j =
          if j >= n then j
          else match json.[j] with ',' -> j + 1 | '}' -> j | _ -> skip (j + 1)
        in
        go (skip i)
      end
      else begin
        Buffer.add_char b json.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let test_batch_trace_parity () =
  let off = batch ~jobs:1 ~trace:false and on = batch ~jobs:1 ~trace:true in
  check_string "snapshot identical with tracing on (modulo obs counters)"
    (scrub_obs_counters (Service.json off))
    (scrub_obs_counters (Service.json on));
  check "tracing on samples the whole batch at the default rate" true
    (contains (Service.json on) "\"obs_sessions_sampled_total\":60");
  check "tracing off samples nothing" true
    (contains (Service.json off) "\"obs_sessions_sampled_total\":0");
  List.iter2
    (fun (x : Session.t) (y : Session.t) ->
      check_string "same verdict" (Session.status_label x.Session.status)
        (Session.status_label y.Session.status);
      check_int "same ticks" x.Session.ticks y.Session.ticks;
      check_int "same events" x.Session.events y.Session.events)
    off.Service.sessions on.Service.sessions;
  check "trace registry disabled by default" false (Obs.batch_enabled off.Service.obs);
  check "trace registry enabled on demand" true (Obs.batch_enabled on.Service.obs)

let test_batch_spans_jobs_identical () =
  let a = batch ~jobs:1 ~trace:true and b = batch ~jobs:4 ~trace:true in
  let export fmt o = Obs.export fmt (Obs.batch_traces o.Service.obs) in
  check_string "jsonl spans identical at jobs 1 vs 4" (export Obs.Jsonl a) (export Obs.Jsonl b);
  check_string "chrome spans identical at jobs 1 vs 4" (export Obs.Chrome a)
    (export Obs.Chrome b);
  check_int "one trace per session" 60 (List.length (Obs.batch_traces a.Service.obs));
  let out = export Obs.Jsonl a in
  (* every session carries the serve pipeline: root + lint + synthesize
     + simulate + audit + placement *)
  check_int "one root span per session" 60 (count out "\"parent\":null");
  check_int "one placement span per session" 60 (count out "\"name\":\"serve.place\"");
  check "cache hit/miss never exported" false (contains out "cache_hit")

(* -- the one JSON writer: every encoder renders through Json.to_string,
   and Json.parse reads back exactly what was written -- *)

module Json = Trust_obs.Json

(* quotes, backslashes, newlines, control bytes, non-ASCII bytes *)
let hostile = "q\"b\\s/\n\r\t\x00\x01\x1f\x7f\xc3\xa9 end"

let gen_hostile_string =
  let open QCheck2.Gen in
  let special = oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '/' ] in
  string_size ~gen:(oneof [ special; char_range '\000' '\031'; char ]) (0 -- 12)

let gen_json =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map Json.int int;
        map (fun x -> Json.fixed 4 x) (float_range (-1e6) 1e6);
        map (fun s -> Json.Str s) gen_hostile_string;
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun vs -> Json.Arr vs) (list_size (0 -- 4) (self (n - 1)));
               map (fun kvs -> Json.Obj kvs)
                 (list_size (0 -- 4) (pair gen_hostile_string (self (n - 1))));
             ])

let prop_writer_round_trip =
  QCheck2.Test.make ~name:"Json.parse inverts Json.to_string" ~count:500 gen_json (fun v ->
      Json.parse (Json.to_string v) = v)

let test_writer_layout () =
  check_string "compact, members in order, numbers verbatim"
    {|{"a":[1,-2.50,null,true],"b\"":{"":"x\\y\u0001"}}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Arr [ Json.int 1; Json.fixed 2 (-2.5); Json.Null; Json.Bool true ]);
            ("b\"", Json.Obj [ ("", Json.Str "x\\y\001") ]);
          ]))

let test_diagnostic_hostile () =
  let module D = Trust_analyze.Diagnostic in
  let d =
    D.make ~file:hostile ~loc:{ Trust_lang.Loc.line = 3; col = 7 } ~notes:[ hostile; "n" ]
      (List.hd D.all_codes) hostile
  in
  let j = Json.parse (D.render_json [ d ]) in
  (match Json.field j "diagnostics" with
  | Json.Arr [ o ] ->
    check_string "message" hostile (Json.as_str (Json.field o "message"));
    check_string "file" hostile (Json.as_str (Json.field o "file"));
    check "notes" true (Json.field o "notes" = Json.Arr [ Json.Str hostile; Json.Str "n" ])
  | _ -> Alcotest.fail "expected one diagnostic");
  let sarif = Json.parse (D.render_sarif [ d ]) in
  match Json.field sarif "runs" with
  | Json.Arr [ run ] -> (
    match Json.field run "results" with
    | Json.Arr [ r ] ->
      check_string "sarif text" (hostile ^ "\n" ^ hostile ^ "\nn")
        (Json.as_str (Json.field (Json.field r "message") "text"))
    | _ -> Alcotest.fail "expected one result")
  | _ -> Alcotest.fail "expected one run"

let test_wire_hostile () =
  let module Wire = Trust_daemon.Wire in
  let req = Wire.Submit { id = 4; spec = hostile } in
  check "submit round trip" true (Wire.decode_request (Wire.encode_request req) = Ok req);
  List.iter
    (fun resp ->
      check "response round trip" true (Wire.decode_response (Wire.encode_response resp) = Ok resp))
    [
      Wire.Welcome { version = 1; server = hostile };
      Wire.Text { id = 2; kind = hostile; text = hostile };
      Wire.Refused { id = Some 3; reason = hostile };
      Wire.Refused { id = None; reason = hostile };
      Wire.Result
        {
          id = 1; status = hostile; exit_code = 2; cache_hit = true; ticks = 5; events = 6;
          attempts = 1; exposure_peak = 7; exposure_ticks = 8; exposure_violations = 0;
          reason = Some hostile;
        };
    ]

let test_span_attr_hostile () =
  let obs = Obs.create () in
  Obs.with_span obs ~phase:hostile hostile (fun h ->
      Obs.attr obs h hostile (Obs.Str hostile);
      Obs.attr obs h "shape" (Obs.Str hostile);
      Obs.event obs h hostile ~attrs:[ (hostile, Obs.Float 0.5) ]);
  let lines = String.split_on_char '\n' (Obs.export ~producer:hostile Obs.Jsonl [ obs ]) in
  (match List.map Json.parse (List.filter (( <> ) "") lines) with
  | [ meta; span; event ] ->
    check_string "producer" hostile (Json.as_str (Json.field meta "producer"));
    check_string "phase" hostile (Json.as_str (Json.field span "phase"));
    check_string "attr" hostile (Json.as_str (Json.field (Json.field span "attrs") hostile));
    check "event attr" true (Json.field (Json.field event "attrs") hostile = Json.Num "0.500000")
  | _ -> Alcotest.fail "expected meta, span and event lines");
  (match Json.parse (Obs.export ~producer:hostile Obs.Chrome [ obs ]) with
  | Json.Arr [ _; span; _ ] ->
    check_string "chrome name" hostile (Json.as_str (Json.field span "name"));
    check_string "chrome cat" hostile (Json.as_str (Json.field span "cat"))
  | _ -> Alcotest.fail "expected three chrome entries");
  let board = Json.parse (Trust_obs.Mine.json (Trust_obs.Mine.of_views (Obs.views obs))) in
  match Json.field board "rows" with
  | Json.Arr [ row ] ->
    check_string "mined shape" hostile (Json.as_str (Json.field row "shape"));
    check "mined phase" true (Json.field_opt (Json.field row "self_vt") hostile <> None)
  | _ -> Alcotest.fail "expected one mined row"

let test_metrics_hostile () =
  let module Metrics = Trust_serve.Metrics in
  let m = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter m hostile);
  Metrics.gauge m (hostile ^ "g") 1.5;
  let j = Json.parse (Json.to_string (Metrics.to_json m)) in
  check "counter key" true (Json.field (Json.field j "counters") hostile = Json.int 3);
  check "gauge key" true (Json.field (Json.field j "gauges") (hostile ^ "g") = Json.Num "1.500000")

let test_report_encoders_parse () =
  let outcome = Service.run { Service.default with Service.sessions = 20; seed = 5L } in
  let j = Json.parse (Service.json outcome) in
  check_int "service sessions" 20 (Json.as_int (Json.field j "sessions"));
  check "service metrics object" true (Json.field_opt (Json.field j "metrics") "counters" <> None);
  let stats =
    Trust_daemon.Server.
      {
        served = 9; settled = 8; expired = 1; aborted = 0; busy = 0; protocol_errors = 2;
        connections = 3; epochs = 0; aged_out = 0; cache_size = 4; drained = true;
      }
  in
  let j = Json.parse (Json.to_string (Trust_daemon.Server.stats_json stats)) in
  check "stats drained" true (Json.as_bool (Json.field j "drained"));
  check_int "stats protocol errors" 2 (Json.as_int (Json.field j "protocol_errors"));
  let report =
    Trust_daemon.Loadgen.
      {
        sent = 1; settled = 1; expired = 0; aborted = 0; busy = 0; dropped = 0; refused = 0;
        cache_hits = 0; wall = 0.1234; throughput = 8.1; p50_ms = 1.; p90_ms = 2.; p99_ms = 3.;
        max_ms = 4.;
      }
  in
  let j = Json.parse (Trust_daemon.Loadgen.json report) in
  check "loadgen wall" true (Json.field j "wall_s" = Json.Num "0.123");
  check "loadgen p99" true (Json.field (Json.field j "latency_ms") "p99" = Json.Num "3.000")

let () =
  Alcotest.run "obs"
    [
      ( "sink",
        [
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "deterministic export" `Quick test_deterministic_export;
          Alcotest.test_case "volatile quarantine" `Quick test_volatile_attrs_never_exported;
        ] );
      ( "exporter edge cases",
        [
          Alcotest.test_case "format names" `Quick test_format_of_string;
          Alcotest.test_case "empty trace list" `Quick test_export_empty_trace_list;
          Alcotest.test_case "zero-span trace" `Quick test_export_zero_span_trace;
          Alcotest.test_case "event on a finished span" `Quick test_event_on_finished_span;
          Alcotest.test_case "50-deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "escaping" `Quick test_escaping;
        ] );
      ("profiler", [ Alcotest.test_case "reduce counters" `Quick test_reduce_profiler ]);
      ( "json writer",
        [
          QCheck_alcotest.to_alcotest prop_writer_round_trip;
          Alcotest.test_case "layout" `Quick test_writer_layout;
          Alcotest.test_case "diagnostics" `Quick test_diagnostic_hostile;
          Alcotest.test_case "wire" `Quick test_wire_hostile;
          Alcotest.test_case "span attrs, chrome, mine" `Quick test_span_attr_hostile;
          Alcotest.test_case "metrics" `Quick test_metrics_hostile;
          Alcotest.test_case "report encoders" `Quick test_report_encoders_parse;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tracing is passive (100 specs)" `Quick test_tracing_is_passive;
          Alcotest.test_case "batch trace on/off parity" `Quick test_batch_trace_parity;
          Alcotest.test_case "batch spans jobs-independent" `Quick test_batch_spans_jobs_identical;
        ] );
    ]
