module Digraph = Trust_graph.Digraph

type t = {
  graph : Digraph.t;
  to_node : int Party.Map.t;
  of_node : Party.t array;
}

let of_spec spec =
  let parties = Spec.parties spec in
  let graph = Digraph.create ~initial_capacity:(List.length parties) () in
  let to_node =
    List.fold_left
      (fun m party -> Party.Map.add party (Digraph.add_node graph) m)
      Party.Map.empty parties
  in
  let of_node = Array.of_list parties in
  let add_commitment (cref, d) =
    let principal = Spec.commitment_principal d cref.Spec.side in
    let u = Party.Map.find principal to_node and v = Party.Map.find d.Spec.via to_node in
    Digraph.add_edge graph u v
  in
  List.iter add_commitment (Spec.commitments spec);
  { graph; to_node; of_node }

let graph t = t.graph

let node_of_party t party =
  match Party.Map.find_opt party t.to_node with
  | Some n -> n
  | None -> raise Not_found

let party_of_node t n = t.of_node.(n)

let is_bipartite t =
  (* The §3 invariant is stronger than 2-colourability: every edge must
     join a principal to a trusted component. *)
  Digraph.fold_edges
    (fun u v ok ->
      ok && Party.is_principal (party_of_node t u) && Party.is_trusted (party_of_node t v))
    t.graph true

let to_dot t =
  let node_attrs n =
    let party = party_of_node t n in
    let shape = if Party.is_trusted party then "box" else "circle" in
    [ ("label", Party.to_string party); ("shape", shape) ]
  in
  Trust_graph.Dot.render ~name:"interaction" ~undirected:true ~node_attrs t.graph
