open Exchange
module Sequencing = Trust_core.Sequencing

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec scan i = i + ln <= lh && (String.sub haystack i ln = needle || scan (i + 1)) in
  ln = 0 || scan 0

let g1 () = Sequencing.build Workload.Scenarios.example1
let g2 () = Sequencing.build Workload.Scenarios.example2

let test_figure3_counts () =
  let g = g1 () in
  check_int "four commitments" 4 (Sequencing.commitment_count g);
  check_int "three conjunctions" 3 (Sequencing.conjunction_count g);
  (* Figure 3 draws six edges. *)
  check_int "six edges" 6 (Sequencing.edge_count g)

let test_figure4_counts () =
  let g = g2 () in
  check_int "eight commitments" 8 (Sequencing.commitment_count g);
  check_int "seven conjunctions" 7 (Sequencing.conjunction_count g);
  check_int "fourteen edges" 14 (Sequencing.edge_count g)

let test_red_edges () =
  let g = g1 () in
  (* The red edge joins the broker's sale-side commitment to AND-b. *)
  let b = Party.broker "b" in
  let conj =
    match Sequencing.conjunction_of_party g b with
    | Some j -> j
    | None -> Alcotest.fail "broker conjunction missing"
  in
  let reds =
    List.filter (fun (_, colour) -> colour = Sequencing.Red)
      (Sequencing.edges_of_conjunction g conj.Sequencing.jid)
  in
  check_int "exactly one red" 1 (List.length reds);
  let cid, _ = List.hd reds in
  let c = Sequencing.commitment g cid in
  check "red is cb.right" true
    (Spec.equal_ref c.Sequencing.cref { Spec.deal = "cb"; side = Spec.Right })

let test_edge_symmetry () =
  let g = g2 () in
  Array.iter
    (fun c ->
      List.iter
        (fun (jid, colour) ->
          check "mirrored" true
            (List.mem (c.Sequencing.cid, colour) (Sequencing.edges_of_conjunction g jid)))
        (Sequencing.edges_of_commitment g c.Sequencing.cid))
    (Sequencing.commitments g)

let test_invariants () =
  List.iter
    (fun (name, spec) ->
      match Sequencing.check_invariants (Sequencing.build spec) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    Workload.Scenarios.all

let test_remove_edge () =
  let g = g1 () in
  let edges = Sequencing.edges_of_commitment g 1 in
  let jid, _ = List.hd edges in
  Sequencing.remove_edge g ~cid:1 ~jid;
  check "edge gone" true (Sequencing.edge_colour g ~cid:1 ~jid = None);
  check_int "count drops" 5 (Sequencing.edge_count g);
  (* removing again is a no-op *)
  Sequencing.remove_edge g ~cid:1 ~jid;
  check_int "still five" 5 (Sequencing.edge_count g)

let test_fringe () =
  (* §4.2.1: a node "on the fringe" has one remaining edge, and only
     fringe edges are reduction candidates *)
  let candidates = Trust_core.Reduce.applicable (g1 ()) in
  let rule1 cid = List.exists (fun (r, c, _) -> r = Trust_core.Reduce.Rule1 && c = cid) candidates in
  (* commitment 1 is (bp, Right) = producer side: only the AND-t2 edge *)
  check "producer commitment fringe" true (rule1 1);
  (* commitment 0 is (bp, Left) = broker's purchase: two edges *)
  check "broker commitment not fringe" false (rule1 0);
  check "conjunctions not fringe" false
    (List.exists (fun (r, _, _) -> r = Trust_core.Reduce.Rule2) candidates)

let test_red_sibling () =
  let g = g1 () in
  let b = Party.broker "b" in
  let conj = Option.get (Sequencing.conjunction_of_party g b) in
  let jid = conj.Sequencing.jid in
  (* commitment 0 (purchase, black) is pre-empted by commitment 3 (red) *)
  check "pre-empted" true (Sequencing.red_sibling g ~cid:0 ~jid <> None);
  (* the red edge itself has no red sibling *)
  check "red not self-pre-empted" true (Sequencing.red_sibling g ~cid:3 ~jid = None)

let test_splits_absent () =
  let g = Sequencing.build Workload.Scenarios.example2_broker1_indemnifies in
  (* the split removes one conjunction edge relative to figure 4 *)
  check_int "thirteen edges" 13 (Sequencing.edge_count g)

let test_copy_independent () =
  let g = g1 () in
  let g' = Sequencing.copy g in
  let jid, _ = List.hd (Sequencing.edges_of_commitment g 1) in
  Sequencing.remove_edge g ~cid:1 ~jid;
  check_int "copy unaffected" 6 (Sequencing.edge_count g')

let test_persona_clause () =
  let g = Sequencing.build Workload.Scenarios.example2_source_trusts_broker in
  (* b1's purchase commitment (b1s1, Left) is commitment 0 and its
     principal b1 plays t2 *)
  check "b1 plays own agent" true (Sequencing.plays_own_agent g 0);
  check "s1 side does not" false (Sequencing.plays_own_agent g 1)

let test_dot () =
  let dot = Sequencing.to_dot (g1 ()) in
  check "hexagon commitments" true (contains dot "hexagon");
  check "box conjunctions" true (contains dot "box");
  check "red edge styled" true (contains dot "color=red");
  check "conjunction label" true (contains dot "AND b")

let test_ascii () =
  let ascii = Sequencing.to_ascii (g1 ()) in
  check "conjunction blocks" true (contains ascii "AND b");
  check "red stroke" true (contains ascii "══red══");
  check "commitment label" true (contains ascii "[t1 | b]");
  (* after reduction everything is disconnected *)
  let g = g1 () in
  ignore (Trust_core.Reduce.run g);
  let reduced = Sequencing.to_ascii g in
  check "disconnected marks" true (contains reduced "(disconnected)");
  check "free commitments listed" true (contains reduced "free commitments")

let prop_generated_invariants =
  QCheck2.Test.make ~name:"generated sequencing graphs satisfy the structural invariants"
    ~count:100 QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      Sequencing.check_invariants (Sequencing.build spec) = Ok ())

let () =
  Alcotest.run "sequencing"
    [
      ( "construction",
        [
          Alcotest.test_case "figure 3 counts" `Quick test_figure3_counts;
          Alcotest.test_case "figure 4 counts" `Quick test_figure4_counts;
          Alcotest.test_case "red edges placed" `Quick test_red_edges;
          Alcotest.test_case "edge symmetry" `Quick test_edge_symmetry;
          Alcotest.test_case "invariants on scenarios" `Quick test_invariants;
          Alcotest.test_case "splits omit edges" `Quick test_splits_absent;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "remove edge" `Quick test_remove_edge;
          Alcotest.test_case "fringe detection" `Quick test_fringe;
          Alcotest.test_case "red sibling pre-emption" `Quick test_red_sibling;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "persona clause" `Quick test_persona_clause;
          Alcotest.test_case "dot rendering" `Quick test_dot;
          Alcotest.test_case "ascii rendering" `Quick test_ascii;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_generated_invariants ]);
    ]
