(* The Petri-net substrate and the §7.4 encoding: net semantics, bounded
   reachability, Karp-Miller coverability, and agreement between the
   exhaustive net exploration and the greedy graph reduction. *)

module Net = Petri.Net
module Analysis = Petri.Analysis
module Encode = Petri.Encode

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A two-place producer/consumer net: produce moves nothing in, consume
   needs a token. *)
let simple_net () =
  let net = Net.create () in
  let buffer = Net.add_place ~name:"buffer" net in
  let consumed = Net.add_place ~name:"consumed" net in
  let produce = Net.add_transition ~name:"produce" net ~pre:[] ~post:[ (buffer, 1) ] in
  let consume =
    Net.add_transition ~name:"consume" net ~pre:[ (buffer, 1) ] ~post:[ (consumed, 1) ]
  in
  (net, buffer, consumed, produce, consume)

let test_net_construction () =
  let net, _, _, _, _ = simple_net () in
  check_int "places" 2 (Net.place_count net);
  check_int "transitions" 2 (Net.transition_count net);
  Alcotest.(check string) "names" "buffer" (Net.place_name net 0);
  Alcotest.(check string) "transition names" "consume" (Net.transition_name net 1)

let test_net_validation () =
  let net = Net.create () in
  let p = Net.add_place net in
  Alcotest.check_raises "zero weight" (Invalid_argument "Net.add_transition: non-positive weight")
    (fun () -> ignore (Net.add_transition net ~pre:[ (p, 0) ] ~post:[]));
  Alcotest.check_raises "unknown place" (Invalid_argument "Net.add_transition: unknown place")
    (fun () -> ignore (Net.add_transition net ~pre:[ (42, 1) ] ~post:[]))

let test_enabled_fire () =
  let net, buffer, consumed, produce, consume = simple_net () in
  let m0 = Net.Marking.initial net [] in
  check "produce enabled" true (Net.enabled net m0 produce);
  check "consume disabled" false (Net.enabled net m0 consume);
  let m1 = Net.fire net m0 produce in
  check_int "token produced" 1 (Net.Marking.tokens m1 buffer);
  let m2 = Net.fire net m1 consume in
  check_int "buffer drained" 0 (Net.Marking.tokens m2 buffer);
  check_int "consumed" 1 (Net.Marking.tokens m2 consumed);
  Alcotest.check_raises "firing disabled" (Invalid_argument "Net.fire: transition not enabled")
    (fun () -> ignore (Net.fire net m0 consume))

let test_enabled_transitions () =
  let net, _, _, produce, consume = simple_net () in
  let m0 = Net.Marking.initial net [] in
  Alcotest.(check (list int)) "only produce" [ produce ] (Net.enabled_transitions net m0);
  let m1 = Net.fire net m0 produce in
  Alcotest.(check (list int)) "both" [ produce; consume ] (Net.enabled_transitions net m1)

let test_marking_ops () =
  let net, buffer, consumed, produce, _ = simple_net () in
  let m = Net.Marking.initial net [ (buffer, 2); (consumed, 1) ] in
  check_int "initial tokens add up" 2 (Net.Marking.tokens m buffer);
  let m' = Net.fire net m produce in
  check_int "fired" 3 (Net.Marking.tokens m' buffer);
  check_int "original untouched" 2 (Net.Marking.tokens m buffer);
  check "covers" true (Net.Marking.covers m' m);
  check "not covered" false (Net.Marking.covers m m')

(* A bounded mutual-exclusion net for reachability. *)
let mutex_net () =
  let net = Net.create () in
  let idle1 = Net.add_place ~name:"idle1" net in
  let idle2 = Net.add_place ~name:"idle2" net in
  let crit1 = Net.add_place ~name:"crit1" net in
  let crit2 = Net.add_place ~name:"crit2" net in
  let lock = Net.add_place ~name:"lock" net in
  let enter1 = Net.add_transition net ~pre:[ (idle1, 1); (lock, 1) ] ~post:[ (crit1, 1) ] in
  let exit1 = Net.add_transition net ~pre:[ (crit1, 1) ] ~post:[ (idle1, 1); (lock, 1) ] in
  let enter2 = Net.add_transition net ~pre:[ (idle2, 1); (lock, 1) ] ~post:[ (crit2, 1) ] in
  let exit2 = Net.add_transition net ~pre:[ (crit2, 1) ] ~post:[ (idle2, 1); (lock, 1) ] in
  ignore (enter1, exit1, enter2, exit2);
  let m0 = Net.Marking.initial net [ (idle1, 1); (idle2, 1); (lock, 1) ] in
  (net, m0, crit1, crit2)

let test_reachability_mutex () =
  let net, m0, crit1, crit2 = mutex_net () in
  (* mutual exclusion: both critical sections never marked together *)
  let violation m = Net.Marking.tokens m crit1 > 0 && Net.Marking.tokens m crit2 > 0 in
  let r = Analysis.reachable net m0 ~goal:violation in
  check "mutex holds" true (r.Analysis.verdict = `Exhausted);
  (* exactly three reachable markings: both idle, or one in its
     critical section *)
  Alcotest.(check (option int)) "state space" (Some 3) (Analysis.state_space_size net m0)

let test_reachability_found_trace () =
  let net, m0, crit1, _ = mutex_net () in
  let r = Analysis.reachable net m0 ~goal:(fun m -> Net.Marking.tokens m crit1 > 0) in
  match r.Analysis.verdict with
  | `Found trace ->
    (* replaying the trace reaches the goal *)
    let final = List.fold_left (Net.fire net) m0 trace in
    check "trace valid" true (Net.Marking.tokens final crit1 > 0)
  | `Exhausted | `Bound_hit -> Alcotest.fail "crit1 is reachable"

let test_reachability_bound () =
  (* unbounded producer: the bound must trip *)
  let net, _, _, _, _ = simple_net () in
  let m0 = Net.Marking.initial net [] in
  let r = Analysis.reachable ~max_states:50 net m0 ~goal:(fun _ -> false) in
  check "bound hit" true (r.Analysis.verdict = `Bound_hit);
  check "stats flag" true r.Analysis.stats.Analysis.hit_bound

let test_coverability_unbounded () =
  (* Karp-Miller answers coverability on the unbounded net the bounded
     BFS cannot finish. *)
  let net, buffer, _, _, _ = simple_net () in
  let m0 = Net.Marking.initial net [] in
  let target = Net.Marking.initial net [ (buffer, 40) ] in
  let r = Analysis.coverable net m0 ~target in
  check "40 tokens coverable" true (r.Analysis.verdict = `Coverable)

let test_coverability_negative () =
  let net, m0, crit1, crit2 = mutex_net () in
  let target =
    Net.Marking.initial net [ (crit1, 1); (crit2, 1) ]
  in
  let r = Analysis.coverable net m0 ~target in
  check "mutex violation not coverable" true (r.Analysis.verdict = `Not_coverable)

(* §7.4 encoding *)

let test_encode_shape () =
  let enc = Encode.of_spec Workload.Scenarios.example1 in
  (* six edges -> twelve places, two transitions per edge *)
  check_int "places" 12 (Net.place_count enc.Encode.net);
  check_int "transitions" 12 (Net.transition_count enc.Encode.net)

let test_encode_agreement_scenarios () =
  List.iter
    (fun (name, spec) ->
      let verdict, _ = Encode.feasible (Encode.of_spec spec) in
      let expected = Trust_core.Feasibility.is_feasible spec in
      let got = match verdict with `Feasible -> true | `Infeasible -> false | `Unknown -> not expected in
      if got <> expected then Alcotest.failf "%s: petri disagrees with the reduction" name)
    Workload.Scenarios.all

let test_reduction_orders_counted () =
  let enc = Encode.of_spec Workload.Scenarios.example1 in
  (* the full reduction-order state space of example 1 *)
  Alcotest.(check (option int)) "sixteen markings" (Some 16) (Encode.reduction_orders enc)

let test_exponential_bundles () =
  let states k =
    match Encode.reduction_orders (Encode.of_spec (Workload.Gen.bundle ~docs:k)) with
    | Some n -> n
    | None -> Alcotest.fail "bound hit"
  in
  check "state space explodes" true (states 6 > 50 * states 3)

let prop_agreement =
  QCheck2.Test.make
    ~name:"exhaustive net exploration agrees with the greedy reduction (confluence)" ~count:60
    QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let mix = { Workload.Gen.default_mix with Workload.Gen.max_fan = 3; max_bundle = 3 } in
      let spec = Workload.Gen.random_transaction rng mix in
      let expected = Trust_core.Feasibility.is_feasible spec in
      match Encode.feasible ~max_states:200_000 (Encode.of_spec spec) with
      | `Feasible, _ -> expected
      | `Infeasible, _ -> not expected
      | `Unknown, _ -> true)

let () =
  Alcotest.run "petri"
    [
      ( "nets",
        [
          Alcotest.test_case "construction" `Quick test_net_construction;
          Alcotest.test_case "validation" `Quick test_net_validation;
          Alcotest.test_case "enable and fire" `Quick test_enabled_fire;
          Alcotest.test_case "enabled transitions" `Quick test_enabled_transitions;
          Alcotest.test_case "marking operations" `Quick test_marking_ops;
        ] );
      ( "analyses",
        [
          Alcotest.test_case "mutex reachability" `Quick test_reachability_mutex;
          Alcotest.test_case "witness traces replay" `Quick test_reachability_found_trace;
          Alcotest.test_case "bound trips" `Quick test_reachability_bound;
          Alcotest.test_case "coverability on unbounded nets" `Quick test_coverability_unbounded;
          Alcotest.test_case "coverability negative" `Quick test_coverability_negative;
        ] );
      ( "encoding (paper 7.4)",
        [
          Alcotest.test_case "shape" `Quick test_encode_shape;
          Alcotest.test_case "agreement on scenarios" `Quick test_encode_agreement_scenarios;
          Alcotest.test_case "reduction orders counted" `Quick test_reduction_orders_counted;
          Alcotest.test_case "bundles explode exponentially" `Quick test_exponential_bundles;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_agreement ]);
    ]
