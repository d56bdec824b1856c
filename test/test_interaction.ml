open Exchange

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec scan i = i + ln <= lh && (String.sub haystack i ln = needle || scan (i + 1)) in
  ln = 0 || scan 0

let example1 = Interaction.of_spec Workload.Scenarios.example1
let example2 = Interaction.of_spec Workload.Scenarios.example2

let test_figure1_shape () =
  (* Figure 1: c - t1 - b - t2 - p, five nodes in a path. *)
  let g = Interaction.graph example1 in
  check_int "five parties" 5 (Trust_graph.Digraph.node_count g);
  check_int "four edges" 4 (Trust_graph.Digraph.edge_count g);
  let edges =
    Trust_graph.Digraph.fold_edges
      (fun u v acc ->
        (Party.name (Interaction.party_of_node example1 u),
         Party.name (Interaction.party_of_node example1 v))
        :: acc)
      g []
  in
  Alcotest.(check (list (pair string string))) "the path c - t1 - b - t2 - p"
    [ ("b", "t1"); ("b", "t2"); ("c", "t1"); ("p", "t2") ]
    (List.sort compare edges)

let test_figure2_shape () =
  (* Figure 2: 5 principals + 4 intermediaries, 8 edges. *)
  let g = Interaction.graph example2 in
  check_int "nine parties" 9 (Trust_graph.Digraph.node_count g);
  check_int "eight edges" 8 (Trust_graph.Digraph.edge_count g)

let test_bipartite () =
  check "example1 bipartite" true (Interaction.is_bipartite example1);
  check "example2 bipartite" true (Interaction.is_bipartite example2)

let test_node_mapping () =
  let b = Party.broker "b" in
  let n = Interaction.node_of_party example1 b in
  check "round trip" true (Party.equal (Interaction.party_of_node example1 n) b);
  Alcotest.check_raises "unknown party" Not_found (fun () ->
      ignore (Interaction.node_of_party example1 (Party.consumer "nobody")))

(* edges of the interaction graph incident to the party's node *)
let degree i party =
  let n = Interaction.node_of_party i party in
  Trust_graph.Digraph.fold_edges
    (fun u v acc -> if u = n || v = n then acc + 1 else acc)
    (Interaction.graph i) 0

let test_degree () =
  check_int "broker degree 2" 2 (degree example1 (Party.broker "b"));
  check_int "consumer degree 1" 1 (degree example1 (Party.consumer "c"));
  check_int "consumer in ex2 degree 2" 2 (degree example2 (Party.consumer "c"))

let test_internal_nodes () =
  (* parties of degree two or more: the conjunction nodes of §4.1 *)
  Alcotest.(check (list string)) "figure 1 internals" [ "b"; "t2"; "t1" ]
    (List.map Party.name (Spec.internal_parties Workload.Scenarios.example1));
  check_int "figure 2 internals" 7
    (List.length (Spec.internal_parties Workload.Scenarios.example2))

let test_edge_of_commitment () =
  (* deal cb's left commitment joins its principal c to its agent t1 *)
  let node = Interaction.node_of_party example1 in
  check "principal -> trusted edge" true
    (List.mem (node (Party.trusted "t1"))
       (Trust_graph.Digraph.succ (Interaction.graph example1) (node (Party.consumer "c"))))

let test_dot () =
  let dot = Interaction.to_dot example1 in
  check "undirected" true (contains dot "graph");
  check "trusted drawn as box" true (contains dot "box");
  check "principal drawn as circle" true (contains dot "circle");
  check "labels parties" true (contains dot "b:broker")

let prop_generated_bipartite =
  QCheck2.Test.make ~name:"generated interaction graphs satisfy the section-3 invariant"
    ~count:100 QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      Interaction.is_bipartite (Interaction.of_spec spec))

let () =
  Alcotest.run "interaction"
    [
      ( "figures",
        [
          Alcotest.test_case "figure 1 shape" `Quick test_figure1_shape;
          Alcotest.test_case "figure 2 shape" `Quick test_figure2_shape;
          Alcotest.test_case "bipartite" `Quick test_bipartite;
        ] );
      ( "queries",
        [
          Alcotest.test_case "node mapping" `Quick test_node_mapping;
          Alcotest.test_case "degrees" `Quick test_degree;
          Alcotest.test_case "internal nodes" `Quick test_internal_nodes;
          Alcotest.test_case "edge of commitment" `Quick test_edge_of_commitment;
          Alcotest.test_case "dot rendering" `Quick test_dot;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_generated_bipartite ]);
    ]
