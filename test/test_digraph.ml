(* Unit and property tests for the generic directed-graph substrate. *)

module Digraph = Trust_graph.Digraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let path n =
  let g = Digraph.create () in
  let rec link = function
    | u :: (v :: _ as rest) ->
      Digraph.add_edge g u v;
      link rest
    | [ _ ] | [] -> ()
  in
  link (Digraph.add_nodes g n);
  g

let cycle n =
  let g = path n in
  Digraph.add_edge g (n - 1) 0;
  g

let test_empty () =
  let g = Digraph.create () in
  check_int "no nodes" 0 (Digraph.node_count g);
  check_int "no edges" 0 (Digraph.edge_count g);
  Alcotest.(check (list (pair int int))) "edges empty" []
    (Digraph.fold_edges (fun u v acc -> (u, v) :: acc) g [])

let test_add_node_ids () =
  let g = Digraph.create () in
  check_int "first id" 0 (Digraph.add_node g);
  check_int "second id" 1 (Digraph.add_node g);
  check_int "third id" 2 (Digraph.add_node g);
  check_int "three nodes" 3 (Digraph.node_count g);
  Digraph.add_edge g 1 2;
  Alcotest.check_raises "not a node: 3" (Invalid_argument "Digraph: node 3 not in graph of size 3")
    (fun () -> Digraph.add_edge g 0 3);
  Alcotest.check_raises "not a node: -1"
    (Invalid_argument "Digraph: node -1 not in graph of size 3") (fun () ->
      Digraph.add_edge g (-1) 0)

let test_add_edge_dedup () =
  let g = path 2 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  check_int "parallel edges collapse" 1 (Digraph.edge_count g)

let test_add_edge_bogus () =
  let g = path 2 in
  Alcotest.check_raises "unknown node" (Invalid_argument "Digraph: node 5 not in graph of size 2")
    (fun () -> Digraph.add_edge g 0 5)

let test_degrees () =
  let g = Digraph.create () in
  let _ = Digraph.add_nodes g 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 3 0;
  check_int "edges" 3 (Digraph.edge_count g);
  Alcotest.(check (list int)) "succ order" [ 1; 2 ] (Digraph.succ g 0);
  Alcotest.(check (list int)) "sink" [] (Digraph.succ g 1);
  (* in-degrees are counted from the successor lists: 3 is the only
     source, 0 is released by it, then 1 and 2 in insertion order *)
  Alcotest.(check (option (list int))) "in-degree order" (Some [ 3; 0; 1; 2 ])
    (Digraph.topological_sort g)

let test_topo_path () =
  match Digraph.topological_sort (path 5) with
  | None -> Alcotest.fail "path must be acyclic"
  | Some order -> Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4 ] order

let test_topo_cycle () =
  check "cycle has no topo order" true (Digraph.topological_sort (cycle 3) = None);
  check "path has an order" true (Digraph.topological_sort (path 4) <> None)

let test_dense_construction () =
  (* A complete graph on n nodes: with the old append-and-scan adjacency
     this was O(E * deg); the edge-table representation keeps it O(E).
     The size is big enough that a quadratic regression times out the
     suite rather than passing slowly. *)
  let n = 512 in
  let g = Digraph.create () in
  let _ = Digraph.add_nodes g n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then Digraph.add_edge g u v
    done
  done;
  check_int "complete graph edge count" (n * (n - 1)) (Digraph.edge_count g);
  (* insertion order must survive the cons'd representation *)
  Alcotest.(check (list int)) "succ in insertion order"
    (List.filter (fun v -> v <> 0) (List.init n (fun i -> i)))
    (Digraph.succ g 0)

(* Properties *)

let gen_dag =
  QCheck2.Gen.(
    let* n = int_range 1 30 in
    let* edges = list_size (int_range 0 60) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return (n, edges))

let build_graph (n, edges) ~only_forward =
  let g = Digraph.create () in
  let _ = Digraph.add_nodes g n in
  List.iter
    (fun (u, v) ->
      if (not only_forward) || u < v then if u <> v then Digraph.add_edge g u v)
    edges;
  g

let prop_topo_respects_edges =
  QCheck2.Test.make ~name:"topological order puts sources before targets" ~count:200 gen_dag
    (fun input ->
      let g = build_graph input ~only_forward:true in
      match Digraph.topological_sort g with
      | None -> false (* forward-only edges cannot cycle *)
      | Some order ->
        let position = Hashtbl.create 16 in
        List.iteri (fun i v -> Hashtbl.replace position v i) order;
        Digraph.fold_edges
          (fun u v ok -> ok && Hashtbl.find position u < Hashtbl.find position v)
          g true)

let () =
  Alcotest.run "digraph"
    [
      ( "construction",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "node ids are dense" `Quick test_add_node_ids;
          Alcotest.test_case "parallel edges collapse" `Quick test_add_edge_dedup;
          Alcotest.test_case "edge to unknown node" `Quick test_add_edge_bogus;
          Alcotest.test_case "degrees and adjacency" `Quick test_degrees;
          Alcotest.test_case "dense construction is linear" `Quick test_dense_construction;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "topological sort of a path" `Quick test_topo_path;
          Alcotest.test_case "cycle detection" `Quick test_topo_cycle;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_topo_respects_edges ] );
    ]
