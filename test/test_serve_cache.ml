(* The protocol cache's contract: a cache hit is indistinguishable from
   fresh synthesis, the canonical shape hash is stable across runs, and
   distinct specs never share an encoding. *)

open Exchange
module Shape = Trust_serve.Shape
module Cache = Trust_serve.Cache
module Gen = Workload.Gen
module Prng = Workload.Prng
module Universe = Workload.Universe
module Feasibility = Trust_core.Feasibility
module Indemnity = Trust_core.Indemnity
module Compile = Trust_core.Compile
module Harness = Trust_sim.Harness
module SE = Trust_analyze.Static_exposure
module Absint = Trust_analyze.Absint

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let outcome_label = function `Hit -> "hit" | `Miss -> "miss" | `Bypass -> "bypass"

let test_hash_stable () =
  check_string "same spec, same hash"
    (Shape.hash_hex (Gen.chain ~brokers:3))
    (Shape.hash_hex (Gen.chain ~brokers:3));
  check_string "same spec, same encoding"
    (Shape.encode (Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20 ]))
    (Shape.encode (Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20 ]));
  (* Pinned: the canonical encoding is part of the cache's persistence
     contract. If this changes, every cached protocol is invalidated —
     change it deliberately, not by accident. *)
  check_string "pinned chain-1 hash" "c1dc6ceae41f53d2" (Shape.hash_hex (Gen.chain ~brokers:1))

let test_hash_collisions () =
  let rng = Prng.create 99L in
  let specs =
    List.init 16 (fun n -> Gen.chain ~brokers:n)
    @ List.init 8 (fun k -> Gen.fan ~prices:(List.init (k + 1) (fun i -> Asset.dollars (10 * (i + 1)))))
    @ List.init 8 (fun k -> Gen.bundle ~docs:(k + 1))
  in
  let random = Gen.random_transactions rng Gen.default_mix 100 in
  let distinct_encodings = Hashtbl.create 64 and distinct_hashes = Hashtbl.create 64 in
  List.iter
    (fun spec ->
      Hashtbl.replace distinct_encodings (Shape.encode spec) ();
      Hashtbl.replace distinct_hashes (Shape.hash spec) ())
    (specs @ random);
  (* the fixed generators are pairwise structurally distinct *)
  let fixed_encodings = Hashtbl.create 64 in
  List.iter (fun spec -> Hashtbl.replace fixed_encodings (Shape.encode spec) ()) specs;
  check_int "fixed generators never collide" (List.length specs) (Hashtbl.length fixed_encodings);
  (* and hashing never merges distinct encodings in this population *)
  check_int "hash is collision-free here" (Hashtbl.length distinct_encodings)
    (Hashtbl.length distinct_hashes)

let test_hit_after_miss () =
  let cache = Cache.create Cache.default_policy in
  let spec = Gen.chain ~brokers:2 in
  let _, first = Cache.synthesize cache spec in
  let _, second = Cache.synthesize cache spec in
  check_string "first is a miss" "miss" (outcome_label first);
  check_string "second is a hit" "hit" (outcome_label second);
  check_int "one resident entry" 1 (Cache.size cache);
  check "hit rate 1/2" true (Cache.hit_rate cache = 0.5)

let test_hit_equals_fresh () =
  (* verify-mode re-synthesizes on every hit and raises on divergence;
     exercise it across the three workload families, including a fan
     that needs the indemnity rescue. *)
  let cache = Cache.create { Cache.default_policy with Cache.verify = true } in
  let specs =
    [
      Gen.chain ~brokers:1;
      Gen.chain ~brokers:3;
      Gen.bundle ~docs:3;
      Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20; Asset.dollars 30 ];
    ]
  in
  List.iter
    (fun spec ->
      (match Cache.synthesize cache spec with
      | Ok _, `Miss -> ()
      | Ok _, o -> Alcotest.failf "expected miss, got %s" (outcome_label o)
      | Error e, _ -> Alcotest.failf "synthesis failed: %s" e);
      match Cache.synthesize cache spec with
      | Ok entry, `Hit -> (
        match Cache.fresh (Cache.policy cache) spec with
        | Ok fresh -> check "hit equals fresh" true (Cache.entry_equal entry fresh)
        | Error e -> Alcotest.failf "fresh synthesis failed: %s" e)
      | _, o -> Alcotest.failf "expected verified hit, got %s" (outcome_label o))
    specs

let test_rescued_fan_carries_plan () =
  let cache = Cache.create Cache.default_policy in
  let spec = Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20; Asset.dollars 30 ] in
  match Cache.synthesize cache spec with
  | Ok entry, `Miss -> (
    match entry.Cache.plan with
    | Some plan ->
      check_int "fig7 greedy rescue total" (Asset.dollars 70) plan.Trust_core.Indemnity.total
    | None -> Alcotest.fail "rescued fan must carry its indemnity plan")
  | _ -> Alcotest.fail "expected a fresh rescued synthesis"

let test_negative_caching () =
  let cache = Cache.create { Cache.default_policy with Cache.rescue = false } in
  let spec = Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20 ] in
  (match Cache.synthesize cache spec with
  | Error _, `Miss -> ()
  | _ -> Alcotest.fail "bare fan must fail synthesis without rescue");
  match Cache.synthesize cache spec with
  | Error _, `Hit -> ()
  | _ -> Alcotest.fail "the infeasible verdict must be cached too"

let test_override_bypasses () =
  let spec =
    Spec.with_override (Party.consumer "c") State.always_acceptable (Gen.chain ~brokers:1)
  in
  check "override specs are not cacheable" false (Shape.cacheable spec);
  let cache = Cache.create Cache.default_policy in
  let _, first = Cache.synthesize cache spec in
  let _, second = Cache.synthesize cache spec in
  check_string "bypass" "bypass" (outcome_label first);
  check_string "bypass again" "bypass" (outcome_label second);
  check_int "nothing resident" 0 (Cache.size cache)

let test_eviction () =
  (* one shard = the unsharded FIFO semantics, pinned exactly *)
  let cache = Cache.create ~capacity:2 ~shards:1 Cache.default_policy in
  let s1 = Gen.chain ~brokers:1 and s2 = Gen.chain ~brokers:2 and s3 = Gen.chain ~brokers:3 in
  ignore (Cache.synthesize cache s1);
  ignore (Cache.synthesize cache s2);
  ignore (Cache.synthesize cache s3);
  check_int "capacity respected" 2 (Cache.size cache);
  check_int "one eviction" 1 (Cache.evictions cache);
  (* s1 was the oldest insertion, so it is the one that went *)
  let _, outcome = Cache.synthesize cache s1 in
  check_string "evicted entry misses" "miss" (outcome_label outcome)

let test_aging_sweeps_idle () =
  let cache = Cache.create ~shards:1 Cache.default_policy in
  let s1 = Gen.chain ~brokers:1 and s2 = Gen.chain ~brokers:2 in
  ignore (Cache.synthesize cache s1);
  ignore (Cache.synthesize cache s2);
  check_int "epoch starts at zero" 0 (Cache.epoch cache);
  (* both entries last used in epoch 0; one tick with max_idle 1 sweeps them *)
  let swept = Cache.advance_epoch ~max_idle:1 cache in
  check_int "both swept" 2 swept;
  check_int "aged_out counts the sweep" 2 (Cache.aged_out cache);
  check_int "nothing resident" 0 (Cache.size cache);
  check_int "epoch advanced" 1 (Cache.epoch cache);
  let _, outcome = Cache.synthesize cache s1 in
  check_string "swept entry misses" "miss" (outcome_label outcome)

let test_aging_touch_survives () =
  let cache = Cache.create ~shards:1 Cache.default_policy in
  let hot = Gen.chain ~brokers:1 and cold = Gen.chain ~brokers:2 in
  ignore (Cache.synthesize cache hot);
  ignore (Cache.synthesize cache cold);
  (* first tick with the default idle window: nothing is old enough *)
  check_int "young entries survive" 0 (Cache.advance_epoch ~max_idle:2 cache);
  check_int "both resident" 2 (Cache.size cache);
  (* touch only the hot entry, then tick again: the cold one is now
     two epochs idle and goes; the hot one was refreshed *)
  (match Cache.synthesize cache hot with
  | _, `Hit -> ()
  | _ -> Alcotest.fail "expected the hot entry to hit");
  check_int "only the cold entry swept" 1 (Cache.advance_epoch ~max_idle:2 cache);
  check_int "hot entry resident" 1 (Cache.size cache);
  (match Cache.synthesize cache hot with
  | _, `Hit -> ()
  | _ -> Alcotest.fail "the survivor must still hit");
  let _, outcome = Cache.synthesize cache cold in
  check_string "the swept entry misses" "miss" (outcome_label outcome)

let test_aging_and_eviction_compose () =
  (* a sweep compacts the FIFO order queue; refills after it must keep
     the oldest-live-insertion eviction order, not trip over residue *)
  let cache = Cache.create ~capacity:2 ~shards:1 Cache.default_policy in
  let s1 = Gen.chain ~brokers:1 and s2 = Gen.chain ~brokers:2 and s3 = Gen.chain ~brokers:3 in
  ignore (Cache.synthesize cache s1);
  ignore (Cache.advance_epoch ~max_idle:1 cache);
  check_int "aged down to empty" 0 (Cache.size cache);
  ignore (Cache.synthesize cache s2);
  ignore (Cache.synthesize cache s3);
  check_int "refilled to capacity" 2 (Cache.size cache);
  ignore (Cache.synthesize cache s1);
  check_int "capacity still respected" 2 (Cache.size cache);
  check_int "one true eviction" 1 (Cache.evictions cache);
  (* s2 was the oldest live insertion; it is the one evicted *)
  let _, outcome = Cache.synthesize cache s3 in
  check_string "newer entry survived the eviction" "hit" (outcome_label outcome)

let test_aging_rejects_bad_window () =
  let cache = Cache.create Cache.default_policy in
  match Cache.advance_epoch ~max_idle:0 cache with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_idle 0 must be rejected"

let test_sharded_counts_aggregate () =
  (* Distinct shapes land on (mostly) distinct shards; the aggregate
     hit/miss/size counters must still read like one cache. *)
  let cache = Cache.create Cache.default_policy in
  check "default shard fan-out" true (Cache.shard_count cache > 1);
  let specs = List.init 12 (fun n -> Gen.chain ~brokers:n) in
  List.iter (fun s -> ignore (Cache.synthesize cache s)) specs;
  List.iter (fun s -> ignore (Cache.synthesize cache s)) specs;
  check_int "one miss per distinct shape" 12 (Cache.misses cache);
  check_int "one hit per repeat" 12 (Cache.hits cache);
  check_int "all resident" 12 (Cache.size cache);
  check "hit rate 1/2" true (Cache.hit_rate cache = 0.5)

let test_sharded_concurrent_same_tallies () =
  (* Hammer one cache from several domains with the same interleaved
     shape stream: per shape, exactly one lookup is the miss and the
     rest are hits, whatever the arrival order — so the aggregate
     tallies equal the sequential ones. *)
  let specs = List.init 6 (fun n -> Gen.chain ~brokers:n) in
  let cache = Cache.create Cache.default_policy in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.iter (fun s -> ignore (Cache.synthesize cache s)) specs))
  in
  Array.iter Domain.join domains;
  check_int "one miss per distinct shape" 6 (Cache.misses cache);
  check_int "hits for every other lookup" (4 * 6 - 6) (Cache.hits cache);
  check_int "six resident" 6 (Cache.size cache)

let prop_cached_equals_fresh =
  QCheck2.Test.make ~name:"cached synthesis equals fresh synthesis" ~count:60 QCheck2.Gen.int
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let specs = Gen.random_transactions rng Gen.default_mix 6 in
      let cache = Cache.create { Cache.default_policy with Cache.verify = true } in
      List.for_all
        (fun spec ->
          ignore (Cache.synthesize cache spec);
          (* the hit re-synthesizes under verify and raises on divergence *)
          match Cache.synthesize cache spec with
          | verdict, `Hit -> (
            match (verdict, Cache.fresh (Cache.policy cache) spec) with
            | Ok cached, Ok fresh -> Cache.entry_equal cached fresh
            | Error a, Error b -> String.equal a b
            | _ -> false)
          | _, (`Miss | `Bypass) -> false)
        specs)

(* -- the one-pass cold path against the reference composition -- *)

(* Cold synthesis as separate passes: a feasibility check, the rescue
   loop from scratch, [Harness.assemble] (which analyses the split spec
   again and builds behaviours), then [Static_exposure.analyze] (a
   third analysis) and [Compile.compile] priced by [Compile.price_for]. *)
let reference policy spec =
  let shared = policy.Cache.shared in
  let plan =
    if (not policy.Cache.rescue) || Feasibility.is_feasible ~shared spec then None
    else
      match Feasibility.rescue_with_indemnities ~shared spec with
      | None | Some { Feasibility.plans = []; _ } -> None
      | Some { Feasibility.plans = [ plan ]; _ } -> Some plan
      | Some { Feasibility.plans; _ } ->
        Some
          {
            Indemnity.offers = List.concat_map (fun p -> p.Indemnity.offers) plans;
            total = List.fold_left (fun acc p -> acc + p.Indemnity.total) 0 plans;
          }
  in
  match Harness.assemble ~mode:policy.Cache.mode ~shared ?plan spec with
  | Error e -> Error e
  | Ok cast ->
    let split = cast.Harness.spec and protocol = cast.Harness.protocol in
    let compiled =
      if Party.Map.is_empty split.Spec.overrides then
        Some
          (Compile.compile
             ~lockstep:(policy.Cache.mode = Harness.Lockstep)
             ~shared ?plan ~price:(Compile.price_for split) split protocol)
      else None
    in
    Ok { Cache.split_spec = split; plan; protocol; exposure = SE.analyze split; compiled }

let interval_key (i : Absint.interval) =
  let w = i.Absint.i_witness in
  ( Party.to_string i.Absint.i_party,
    (i.Absint.i_bound, i.Absint.i_lo, i.Absint.i_hi, w.Absint.w_at_risk),
    Option.map Party.to_string w.Absint.w_defector,
    List.map (fun s -> (s.Absint.a_index, Absint.label s)) w.Absint.w_kept,
    w.Absint.w_stalled )

let exposure_equal (a : SE.t) (b : SE.t) =
  let diagnostics x =
    List.map (Format.asprintf "%a" Trust_analyze.Diagnostic.pp) (SE.diagnostics x)
  in
  a.SE.verdict = b.SE.verdict
  && a.SE.steps = b.SE.steps
  && List.map interval_key a.SE.intervals = List.map interval_key b.SE.intervals
  && diagnostics a = diagnostics b

(* Every plan table, compared structurally ([compare], which short-cuts
   the shared spec physically). *)
let compiled_equal a b =
  match (a, b) with
  | None, None -> true
  | Some (a : Compile.t), Some (b : Compile.t) ->
    compare { a with Compile.spec = b.Compile.spec } b = 0
  | None, Some _ | Some _, None -> false

let universe_specs config seed n =
  let u = Universe.create config in
  let rng = Prng.create seed in
  List.init n (fun _ -> Universe.sample u rng)

let check_cold_path ~ctx policy specs =
  let rescued = ref 0 and errors = ref 0 in
  List.iteri
    (fun i spec ->
      match (Cache.fresh policy spec, reference policy spec) with
      | Ok e, Ok r ->
        if e.Cache.plan <> None then incr rescued;
        if not (Cache.entry_equal e r) then Alcotest.failf "%s spec %d: entries differ" ctx i;
        if not (exposure_equal e.Cache.exposure r.Cache.exposure) then
          Alcotest.failf "%s spec %d: static exposure differs" ctx i;
        if not (compiled_equal e.Cache.compiled r.Cache.compiled) then
          Alcotest.failf "%s spec %d: compiled plans differ" ctx i
      | Error a, Error b ->
        incr errors;
        check_string (Printf.sprintf "%s spec %d: error" ctx i) b a
      | Ok _, Error b ->
        Alcotest.failf "%s spec %d: reference failed (%s), one pass did not" ctx i b
      | Error a, Ok _ ->
        Alcotest.failf "%s spec %d: one pass failed (%s), reference did not" ctx i a)
    specs;
  (!rescued, !errors)

let test_cold_path_equals_reference () =
  let corpus = Gen.random_transactions (Prng.create 909L) Gen.default_mix 200 in
  let daemon_traffic =
    universe_specs Universe.default_config 7L 500
    @ universe_specs Universe.defect_heavy 11L 500
  in
  let rescued, _ = check_cold_path ~ctx:"default" Cache.default_policy (corpus @ daemon_traffic) in
  check "rescued specs are covered" true (rescued > 0);
  let _, infeasible =
    check_cold_path ~ctx:"no rescue" { Cache.default_policy with Cache.rescue = false } corpus
  in
  check "infeasible verdicts are covered" true (infeasible > 0);
  (* bundles through one agent are feasible only under the shared-agent
     rule, while the static bound keeps the paper's rules: vacuous *)
  let bundle docs =
    let c = Party.consumer "c" and t = Party.trusted "t" in
    Spec.make_exn
      (List.init docs (fun i ->
           Spec.sale ~id:(Printf.sprintf "d%d" i) ~buyer:c
             ~seller:(Party.producer (Printf.sprintf "p%d" i))
             ~via:t ~price:(Asset.dollars (10 * (i + 1))) ~good:(Printf.sprintf "doc%d" i)))
  in
  let bundles = [ bundle 2; bundle 3 ] in
  ignore
    (check_cold_path ~ctx:"shared, distributed"
       { Cache.default_policy with Cache.shared = true; mode = Harness.Distributed }
       (bundles @ corpus))

(* Allocation regression for cold synthesis: one [Cache.fresh] on the
   largest fixed shapes must stay within a minor-heap budget. Analysing
   the spec three times and the nested whole-spec scans (a price or
   custody lookup rescanning every commitment, a defector's reach
   recomputed per principal) cost chain8 1.21M and fan5 1.33M words
   per synthesis; the budgets sit at 1.4x the one-pass figures, so
   reintroducing any of them fails this test. *)
let cold_budgets =
  [
    ("chain8", Gen.chain ~brokers:8, 60_000.);
    ("fan5", Gen.fan ~prices:(List.init 5 (fun i -> Asset.dollars (i + 1))), 80_000.);
  ]

let test_cold_allocation_budget () =
  List.iter
    (fun (name, spec, budget) ->
      ignore (Cache.fresh Cache.default_policy spec);
      let rounds = 5 in
      let before = Gc.minor_words () in
      for _ = 1 to rounds do
        ignore (Sys.opaque_identity (Cache.fresh Cache.default_policy spec))
      done;
      let per_synthesis = (Gc.minor_words () -. before) /. float_of_int rounds in
      if per_synthesis > budget then
        Alcotest.failf "cold synthesis of %s allocated %.0f minor words (budget %.0f)" name
          per_synthesis budget)
    cold_budgets

let prop_hash_deterministic =
  QCheck2.Test.make ~name:"shape hash is a pure function of the spec" ~count:100 QCheck2.Gen.int
    (fun seed ->
      let spec_of () =
        Gen.random_transaction (Prng.create (Int64.of_int seed)) Gen.default_mix
      in
      Shape.hash (spec_of ()) = Shape.hash (spec_of ())
      && String.equal (Shape.encode (spec_of ())) (Shape.encode (spec_of ())))

let () =
  Alcotest.run "serve_cache"
    [
      ( "shape",
        [
          Alcotest.test_case "hash stability" `Quick test_hash_stable;
          Alcotest.test_case "collision sanity" `Quick test_hash_collisions;
          Alcotest.test_case "override bypass" `Quick test_override_bypasses;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_hit_after_miss;
          Alcotest.test_case "hit equals fresh" `Quick test_hit_equals_fresh;
          Alcotest.test_case "rescued fan carries plan" `Quick test_rescued_fan_carries_plan;
          Alcotest.test_case "negative caching" `Quick test_negative_caching;
          Alcotest.test_case "eviction" `Quick test_eviction;
          Alcotest.test_case "aging sweeps idle entries" `Quick test_aging_sweeps_idle;
          Alcotest.test_case "touched entries survive aging" `Quick test_aging_touch_survives;
          Alcotest.test_case "aging composes with eviction" `Quick test_aging_and_eviction_compose;
          Alcotest.test_case "aging rejects a zero window" `Quick test_aging_rejects_bad_window;
          Alcotest.test_case "sharded counters aggregate" `Quick test_sharded_counts_aggregate;
          Alcotest.test_case "concurrent lookups, sequential tallies" `Quick
            test_sharded_concurrent_same_tallies;
        ] );
      ( "cold path",
        [
          Alcotest.test_case "one pass equals the reference composition" `Quick
            test_cold_path_equals_reference;
          Alcotest.test_case "cold synthesis allocation budget" `Quick test_cold_allocation_budget;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cached_equals_fresh;
          QCheck_alcotest.to_alcotest prop_hash_deterministic;
        ] );
    ]
