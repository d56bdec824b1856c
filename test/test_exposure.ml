(* The exposure ledger: §5's protection invariant made observable.

   The paper's claim is that a feasible protocol never leaves an honest
   principal with more than one transfer's worth of value at risk, and
   leaves none at the end. These tests pin the ledger to the worked
   examples — mediated exchange shows zero principal exposure with the
   value sitting in escrow at the agent, direct trust opens a risk
   window exactly as wide as the single-transfer bound — then sweep the
   invariant over generated workloads and check that adversarial runs
   flag the violating party at the violating tick. *)

module E = Trust_sim.Exposure
module Harness = Trust_sim.Harness
module Engine = Trust_sim.Engine
module Indemnity = Trust_core.Indemnity
module Obs = Trust_obs.Obs
module S = Workload.Scenarios
module Gen = Workload.Gen
module Prng = Workload.Prng
open Exchange

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ledger ?plan ?(defectors = []) spec =
  match Harness.adversarial_run ?plan ~defectors spec with
  | Error m -> Alcotest.fail m
  | Ok result ->
    (* the ledger judges the split spec, like the audit (§6) *)
    let split = match plan with Some p -> Indemnity.apply p spec | None -> spec in
    (E.of_result ?plan ~defectors:(List.map fst defectors) split result, result)

let party_ledger (x : E.t) name =
  match List.find_opt (fun (l : E.party_ledger) -> Party.name l.E.party = name) x.E.parties with
  | Some l -> l
  | None -> Alcotest.fail ("no party ledger for " ^ name)

(* -- worked example: mediated exchange, zero principal exposure -- *)

let test_mediated_zero_exposure () =
  let x, _ = ledger S.simple_sale in
  check_int "no violations" 0 (List.length x.E.violations);
  List.iter
    (fun (l : E.party_ledger) ->
      check_int (Party.name l.E.party ^ " never at risk") 0 l.E.peak_at_risk;
      check_int (Party.name l.E.party ^ " no risk ticks") 0 l.E.risk_ticks;
      check (Party.name l.E.party ^ " value moved through escrow") true
        (l.E.peak_in_escrow > 0);
      check_int (Party.name l.E.party ^ " escrow drained") 0 l.E.final.E.in_escrow)
    x.E.parties;
  (* the value shows up in the agent's custody ledger instead *)
  check "agent held custody" true
    (List.exists (fun (a : E.agent_ledger) -> a.E.peak_custody > 0) x.E.agents);
  List.iter
    (fun (a : E.agent_ledger) -> check_int "custody drained" 0 a.E.final_custody)
    x.E.agents

let test_example1_escrow_peaks () =
  let x, _ = ledger S.example1 in
  check_int "no violations" 0 (List.length x.E.violations);
  let expect name escrow =
    let l = party_ledger x name in
    check_int (name ^ " at-risk peak") 0 l.E.peak_at_risk;
    check_int (name ^ " escrow peak") escrow l.E.peak_in_escrow
  in
  (* Fig. 4: b buys at $8 and sells at $10, p supplies the $8 good *)
  expect "b" 800;
  expect "p" 800;
  expect "c" 1000

(* -- worked example: direct trust opens a window = the §5 bound -- *)

let test_direct_trust_window () =
  let x, _ = ledger S.simple_sale_direct in
  check_int "no violations" 0 (List.length x.E.violations);
  let c = party_ledger x "c" in
  let index = Trust_core.Spec_index.make S.simple_sale_direct in
  let bound = Trust_core.Spec_index.single_transfer_bound index c.E.party in
  check "consumer has a positive bound" true (bound > 0);
  check_int "window exactly the single-transfer bound" bound c.E.peak_at_risk;
  check "a real risk window" true (c.E.risk_ticks >= 1);
  check_int "settled by the end" 0 c.E.final.E.at_risk;
  (* the trusting party pays first; the trusted one is never exposed *)
  check_int "producer never at risk" 0 (party_ledger x "p").E.peak_at_risk

(* -- worked example: §6 indemnities keep everyone at zero risk -- *)

let test_indemnified_rescue () =
  match Indemnity.rescued_run S.example2 ~owner:S.example2_consumer with
  | None -> Alcotest.fail "example2 rescue failed"
  | Some (plan, _) ->
    let x, _ = ledger ~plan S.example2 in
    check_int "no violations" 0 (List.length x.E.violations);
    List.iter
      (fun (l : E.party_ledger) ->
        check_int (Party.name l.E.party ^ " never at risk") 0 l.E.peak_at_risk)
      x.E.parties;
    check "somebody posted a deposit" true
      (List.exists (fun (l : E.party_ledger) -> l.E.peak_deposits > 0) x.E.parties);
    List.iter
      (fun (l : E.party_ledger) ->
        check_int (Party.name l.E.party ^ " deposits settled") 0 l.E.final.E.deposits)
      x.E.parties

(* -- adversarial: the defrauded party is flagged at the right tick -- *)

let test_adversarial_unsettled () =
  let defectors = [ (Party.producer "p", Harness.Silent) ] in
  let x, result = ledger ~defectors S.simple_sale_direct in
  (match x.E.violations with
  | [ { E.v_party; v_at; v_kind = E.Unsettled { residual } } ] ->
    check "the trusting consumer is the victim" true (Party.equal v_party (Party.consumer "c"));
    let c = party_ledger x "c" in
    check_int "residual is the whole payment" c.E.peak_at_risk residual;
    (* the flagged tick is the delivery tick of the payment that was
       never reciprocated — cross-checked against the engine log *)
    let payment_tick =
      List.find_map
        (fun (d : Engine.delivery) ->
          match d.Engine.action with
          | Action.Do { Action.source; asset = Asset.Money _; _ }
            when Party.equal source (Party.consumer "c") ->
            Some d.Engine.at
          | _ -> None)
        result.Engine.log
    in
    check_int "flagged at the payment's delivery tick"
      (Option.get payment_tick) v_at
  | vs ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one unsettled violation, got %d" (List.length vs)));
  (* the defector itself is exempt from invariant checking *)
  check "no violation blames the defector" true
    (List.for_all
       (fun v -> not (Party.equal v.E.v_party (Party.producer "p")))
       x.E.violations)

let test_adversarial_mediated_protects () =
  (* with an escrow in the middle, a defector hurts only itself: the
     deadline unwind returns everyone's custody (§2.2) *)
  List.iter
    (fun defectors ->
      let x, _ = ledger ~defectors S.example1 in
      check_int "no violations" 0 (List.length x.E.violations);
      List.iter
        (fun (l : E.party_ledger) ->
          if not (List.exists (fun (p, _) -> Party.equal p l.E.party) defectors) then begin
            check_int (Party.name l.E.party ^ " never at risk") 0 l.E.peak_at_risk;
            check_int (Party.name l.E.party ^ " made whole") 0 l.E.final.E.at_risk
          end)
        x.E.parties)
    [
      [ (Party.consumer "c", Harness.Silent) ];
      [ (Party.broker "b", Harness.Partial 1) ];
    ]

(* -- property: honest feasible runs never violate the bound -- *)

let test_property_honest_runs_bounded () =
  let rng = Prng.create 2024L in
  let specs = Gen.random_transactions rng Gen.default_mix 150 in
  let feasible = ref 0 in
  List.iteri
    (fun i spec ->
      match Harness.honest_run spec with
      | Error _ -> ()
      | Ok result ->
        incr feasible;
        let x = E.of_result spec result in
        if x.E.violations <> [] then
          Alcotest.fail
            (Format.asprintf "spec %d: honest run violated the invariant:@.%a" i E.pp x);
        List.iter
          (fun (l : E.party_ledger) ->
            check (Printf.sprintf "spec %d: %s within bound" i (Party.name l.E.party)) true
              (l.E.peak_at_risk <= l.E.bound);
            check_int (Printf.sprintf "spec %d: %s settled" i (Party.name l.E.party)) 0
              l.E.final.E.at_risk)
          x.E.parties)
    specs;
  check "enough feasible specs to mean something" true (!feasible >= 100)

(* -- the ledger rides on the trace as a structured span -- *)

let test_record_span () =
  let contains haystack needle =
    let n = String.length haystack and k = String.length needle in
    let rec at i = i + k <= n && (String.sub haystack i k = needle || at (i + 1)) in
    at 0
  in
  let defectors = [ (Party.producer "p", Harness.Silent) ] in
  let x, _ = ledger ~defectors S.simple_sale_direct in
  let obs = Obs.create () in
  E.record obs x;
  let out = Obs.export Obs.Jsonl [ obs ] in
  check "exposure phase" true (contains out "\"phase\":\"exposure\"");
  check "summary attrs" true (contains out "\"peak_at_risk\":");
  check "per-party attr" true (contains out "\"peak_at_risk.c\":");
  check "violation event" true (contains out "\"name\":\"violation\"");
  check "violation kind" true (contains out "\"kind\":\"unsettled\"");
  check "null sink records nothing" true (Obs.export Obs.Jsonl [ Obs.null ] = "")

(* -- the serve layer aggregates the same numbers per session -- *)

let test_serve_exposure_tally () =
  let module Service = Trust_serve.Service in
  let module Session = Trust_serve.Session in
  let outcome =
    Service.run
      {
        Service.default with
        Service.sessions = 40;
        seed = 19L;
        defect_every = Some 8;
        mix = { Gen.default_mix with Gen.trust_density = 0.5 };
      }
  in
  let t = Service.exposure_tally outcome.Service.sessions in
  check "direct-trust sessions were exposed" true (t.Service.at_risk_sessions > 0);
  check "risk ticks accumulated" true (t.Service.risk_ticks > 0);
  let max_peak =
    List.fold_left
      (fun acc (s : Session.t) -> max acc s.Session.exposure_peak)
      0 outcome.Service.sessions
  in
  check_int "tally peak is the per-session max" max_peak t.Service.peak;
  let contains haystack needle =
    let n = String.length haystack and k = String.length needle in
    let rec at i = i + k <= n && (String.sub haystack i k = needle || at (i + 1)) in
    at 0
  in
  check "batch json carries the aggregates" true
    (contains (Service.json outcome) "\"exposure\":{\"peak_at_risk\":")

let () =
  Alcotest.run "exposure"
    [
      ( "worked examples",
        [
          Alcotest.test_case "mediated: zero principal exposure" `Quick
            test_mediated_zero_exposure;
          Alcotest.test_case "example1: escrow peaks" `Quick test_example1_escrow_peaks;
          Alcotest.test_case "direct trust: window = bound" `Quick test_direct_trust_window;
          Alcotest.test_case "indemnified rescue: zero risk" `Quick test_indemnified_rescue;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "unsettled flagged at the right tick" `Quick
            test_adversarial_unsettled;
          Alcotest.test_case "escrow protects the honest" `Quick
            test_adversarial_mediated_protects;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "honest runs bounded (150 specs)" `Quick
            test_property_honest_runs_bounded;
        ] );
      ( "integration",
        [
          Alcotest.test_case "record emits a structured span" `Quick test_record_span;
          Alcotest.test_case "serve tally" `Quick test_serve_exposure_tally;
        ] );
    ]
