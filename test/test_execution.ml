(* Execution-sequence recovery (§5): the paper's ten steps, physical
   realisability, and safety of the synthesized order. *)

open Exchange
module Sequencing = Trust_core.Sequencing
module Reduce = Trust_core.Reduce
module Execution = Trust_core.Execution

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sequence_of spec =
  match Execution.of_outcome (Reduce.run (Sequencing.build spec)) with
  | Ok seq -> seq
  | Error e -> Alcotest.failf "expected feasible: %s" e

let test_paper_ten_steps () =
  let seq = sequence_of Workload.Scenarios.example1 in
  let got = Execution.actions seq in
  let expected = Workload.Scenarios.paper_example1_actions in
  check_int "ten steps" 10 (List.length got);
  List.iteri
    (fun i (g, e) ->
      if not (Action.equal g e) then
        Alcotest.failf "step %d: got %s, paper says %s" (i + 1) (Action.to_string g)
          (Action.to_string e))
    (List.combine got expected)

let test_infeasible_has_no_sequence () =
  match Execution.of_outcome (Reduce.run (Sequencing.build Workload.Scenarios.example2)) with
  | Ok _ -> Alcotest.fail "example 2 must not yield a sequence"
  | Error _ -> ()

let test_red_deferred_to_end () =
  (* The broker's sale-side transfer (give b->t1) happens after its
     purchase-side transfer (pay b->t2), even though the sale commitment
     was reached first (§5: committed first, executed last). *)
  let seq = sequence_of Workload.Scenarios.example1 in
  let index_of action =
    let rec find i = function
      | [] -> Alcotest.failf "action %s missing" (Action.to_string action)
      | a :: rest -> if Action.equal a action then i else find (i + 1) rest
    in
    find 0 (Execution.actions seq)
  in
  let b = Party.broker "b" and t1 = Party.trusted "t1" and t2 = Party.trusted "t2" in
  check "purchase before sale delivery" true
    (index_of (Action.pay b t2 (Asset.dollars 8)) < index_of (Action.give b t1 "d"))

let test_notifications_from_trusted () =
  let seq = sequence_of Workload.Scenarios.example1 in
  let notifies =
    List.filter (function Action.Notify _ -> true | _ -> false) (Execution.actions seq)
  in
  check_int "two notifications" 2 (List.length notifies);
  check "notifies performed by trusted agents" true
    (List.for_all (fun a -> Party.is_trusted (Action.performer a)) notifies)

let test_physical_constraint () =
  List.iter
    (fun (name, spec) ->
      match (Trust_core.Feasibility.analyze spec).Trust_core.Feasibility.sequence with
      | None -> ()
      | Some seq -> (
        match Execution.check_physical seq with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" name e))
    Workload.Scenarios.all

let test_all_parties_acceptable () =
  List.iter
    (fun (name, spec) ->
      match (Trust_core.Feasibility.analyze spec).Trust_core.Feasibility.sequence with
      | None -> ()
      | Some seq ->
        List.iter
          (fun (party, ok) ->
            if not ok then Alcotest.failf "%s: %s not acceptable" name (Party.to_string party))
          (Execution.all_parties_acceptable seq))
    Workload.Scenarios.all

let test_final_state_preferred () =
  let seq = sequence_of Workload.Scenarios.example1 in
  let state = Execution.final_state seq in
  List.iter
    (fun party ->
      check
        (Party.to_string party ^ " reaches preferred")
        true
        (Outcomes.preferred_reached Workload.Scenarios.example1 ~party state))
    (Spec.parties Workload.Scenarios.example1)

let test_direct_trust_elides_self_sends () =
  (* simple_sale_direct: the producer plays the intermediary, so only two
     transfers remain (§8's two-message exchange). *)
  let seq = sequence_of Workload.Scenarios.simple_sale_direct in
  let transfers =
    List.filter (function Action.Do _ -> true | _ -> false) (Execution.actions seq)
  in
  check_int "two transfers" 2 (List.length transfers);
  check "no self transfers" true
    (List.for_all
       (function
         | Action.Do tr -> not (Party.equal tr.Action.source tr.Action.target)
         | _ -> true)
       (Execution.actions seq))

let test_chain_message_counts () =
  (* Mediated chains cost 5 messages per deal: two in, two out, one
     notification. *)
  List.iter
    (fun n ->
      let seq = sequence_of (Workload.Gen.chain ~brokers:n) in
      check_int
        (Printf.sprintf "chain %d messages" n)
        (5 * (n + 1))
        (Execution.message_count seq))
    [ 0; 1; 2; 5 ]

let test_forwards_docs_before_money () =
  let seq = sequence_of Workload.Scenarios.example1 in
  let rec scan = function
    | [] | [ _ ] -> ()
    | a :: (b :: _ as rest) ->
      (match (a.Execution.origin, b.Execution.origin) with
      | Execution.Forward d1, Execution.Forward d2 when d1 = d2 -> (
        match (a.Execution.action, b.Execution.action) with
        | Action.Do t1, Action.Do t2 ->
          if (not (Asset.is_document t1.Action.asset)) && Asset.is_document t2.Action.asset then
            Alcotest.fail "money forwarded before document"
        | _ -> ())
      | _ -> ());
      scan rest
  in
  scan seq.Execution.steps

let test_rescued_fig7_physical () =
  match Trust_core.Feasibility.rescue_with_indemnities Workload.Scenarios.fig7 with
  | None -> Alcotest.fail "fig7 rescue failed"
  | Some rescue -> (
    match rescue.Trust_core.Feasibility.analysis.Trust_core.Feasibility.sequence with
    | None -> Alcotest.fail "no sequence"
    | Some seq -> (
      match Execution.check_physical seq with
      | Ok () -> ()
      | Error e -> Alcotest.fail e))

let prop_generated_sequences_safe =
  QCheck2.Test.make
    ~name:"every synthesized sequence is physical and acceptable to all parties" ~count:150
    QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      match (Trust_core.Feasibility.analyze spec).Trust_core.Feasibility.sequence with
      | None -> true
      | Some seq ->
        Execution.check_physical seq = Ok ()
        && List.for_all snd (Execution.all_parties_acceptable seq))

let prop_message_bound =
  QCheck2.Test.make ~name:"mediated sequences use at most five messages per deal" ~count:150
    QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      match (Trust_core.Feasibility.analyze spec).Trust_core.Feasibility.sequence with
      | None -> true
      | Some seq -> Execution.message_count seq <= 5 * List.length spec.Spec.deals)

let () =
  Alcotest.run "execution"
    [
      ( "paper section 5",
        [
          Alcotest.test_case "the ten steps" `Quick test_paper_ten_steps;
          Alcotest.test_case "infeasible yields no sequence" `Quick test_infeasible_has_no_sequence;
          Alcotest.test_case "red commitments deferred" `Quick test_red_deferred_to_end;
          Alcotest.test_case "notifications from trusted agents" `Quick
            test_notifications_from_trusted;
          Alcotest.test_case "documents forwarded before money" `Quick
            test_forwards_docs_before_money;
        ] );
      ( "safety",
        [
          Alcotest.test_case "physical constraint on scenarios" `Quick test_physical_constraint;
          Alcotest.test_case "all parties acceptable" `Quick test_all_parties_acceptable;
          Alcotest.test_case "preferred outcome reached" `Quick test_final_state_preferred;
          Alcotest.test_case "direct trust elides self-sends" `Quick
            test_direct_trust_elides_self_sends;
          Alcotest.test_case "chain message counts" `Quick test_chain_message_counts;
          Alcotest.test_case "rescued fig7 physical" `Quick test_rescued_fig7_physical;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_generated_sequences_safe; prop_message_bound ] );
    ]
