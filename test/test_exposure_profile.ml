(* Out-of-hands exposure profiles over the exposure ledger: the per-tick
   at risk + in escrow + deposits that bench table E12 prints, and §5's
   claim that honest principals end with nothing at risk, defector or
   not. Kept in a suite of its own, beside test_exposure.ml, so its
   groups stay "exposure" and "properties". *)

module E = Trust_sim.Exposure
module Harness = Trust_sim.Harness
module Engine = Trust_sim.Engine
module Indemnity = Trust_core.Indemnity
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


let out_of_hands (s : E.sample) = s.E.at_risk + s.E.in_escrow + s.E.deposits

let peak_out (l : E.party_ledger) =
  List.fold_left (fun acc s -> max acc (out_of_hands s)) 0 l.E.timeline

let honest_ledger spec =
  match Harness.honest_run spec with
  | Ok result -> (E.of_result spec result, result)
  | Error e -> Alcotest.fail e

let test_profile_ticks_ascend () =
  let x, _ = honest_ledger S.example1 in
  List.iter
    (fun (l : E.party_ledger) ->
      let rec ascending = function
        | (a : E.sample) :: (b :: _ as rest) -> a.E.at < b.E.at && ascending rest
        | _ -> true
      in
      check (Party.name l.E.party ^ " ticks ascend") true (ascending l.E.timeline))
    x.E.parties

let test_consumer_shape () =
  (* the consumer pays $10 into escrow and is made whole when the
     document arrives *)
  let c = party_ledger (fst (honest_ledger S.example1)) "c" in
  check_int "peak is the price" (Asset.dollars 10) (peak_out c);
  check_int "nothing out at the end" 0 (out_of_hands c.E.final)

let test_producer_shape () =
  (* the producer ships a document it sells for $8; paid at the end *)
  let p = party_ledger (fst (honest_ledger S.example1)) "p" in
  check_int "peak is its sale price" (Asset.dollars 8) (peak_out p);
  check "goods out at some point" true (List.exists (fun s -> s.E.goods_out = 1) p.E.timeline);
  check_int "goods delivered for good" 1 p.E.final.E.goods_out;
  check_int "nothing at risk at the end" 0 (out_of_hands p.E.final)

let test_honest_runs_end_covered () =
  List.iter
    (fun (name, spec) ->
      match Harness.honest_run spec with
      | Error _ -> ()
      | Ok result ->
        let x = E.of_result spec result in
        check_int (name ^ ": no violations") 0 (List.length x.E.violations);
        List.iter
          (fun (l : E.party_ledger) ->
            check_int (name ^ ": " ^ Party.name l.E.party ^ " ends covered") 0 l.E.final.E.at_risk)
          x.E.parties)
    S.all

let test_direct_trust_deliveries () =
  (* §8: direct trust halves the messages; what the parties have out of
     hand stays bounded by the prices *)
  let _, mediated = honest_ledger S.example1 in
  let x, direct = honest_ledger (Trust_core.Cost.with_all_direct_trust S.example1) in
  check "fewer deliveries" true
    (List.length direct.Engine.log < List.length mediated.Engine.log);
  check "total exposure still bounded by prices" true
    (List.fold_left (fun acc l -> acc + peak_out l) 0 x.E.parties <= Asset.dollars 36)

let test_indemnified_defector () =
  (* a broker defects mid-run on fig7 under its indemnity plan: every
     honest principal still ends with nothing at risk *)
  let plan = Indemnity.plan_greedy S.fig7 ~owner:S.fig7_consumer in
  let b2 = Party.broker "b2" in
  let x, _ = ledger ~plan ~defectors:[ (b2, Harness.Partial 2) ] S.fig7 in
  List.iter
    (fun (l : E.party_ledger) ->
      if not (Party.equal l.E.party b2) then
        check_int (Party.name l.E.party ^ " ends covered") 0 l.E.final.E.at_risk)
    x.E.parties

let prop_honest_generated_runs_covered =
  QCheck2.Test.make ~name:"honest generated runs end with every principal covered" ~count:60
    QCheck2.Gen.int (fun seed ->
      let spec = Gen.random_transaction (Prng.create (Int64.of_int seed)) Gen.default_mix in
      match Harness.honest_run spec with
      | Error _ -> true
      | Ok result ->
        List.for_all
          (fun (l : E.party_ledger) -> l.E.final.E.at_risk = 0)
          (E.of_result spec result).E.parties)

let () =
  Alcotest.run "exposure profile"
    [
      ( "exposure",
        [
          Alcotest.test_case "ticks ascend" `Quick test_profile_ticks_ascend;
          Alcotest.test_case "consumer shape" `Quick test_consumer_shape;
          Alcotest.test_case "producer shape" `Quick test_producer_shape;
          Alcotest.test_case "honest runs end covered" `Quick test_honest_runs_end_covered;
          Alcotest.test_case "direct trust" `Quick test_direct_trust_deliveries;
          Alcotest.test_case "honest covered despite defector" `Quick test_indemnified_defector;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_honest_generated_runs_covered ]);
    ]
