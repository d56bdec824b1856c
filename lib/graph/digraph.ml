(* Adjacency lists are stored in *reverse* insertion order so that
   [add_edge] is a cons, not an append; every reader goes through
   {!succ}, which reverses back to insertion order. Edge membership is
   a hash table so dense-graph construction is O(E). *)
type t = {
  mutable size : int;
  mutable succs : int list array;  (** reverse insertion order *)
  edge_set : (int * int, unit) Hashtbl.t;
  mutable n_edges : int;
}

let create ?(initial_capacity = 16) () =
  let cap = max 1 initial_capacity in
  { size = 0; succs = Array.make cap []; edge_set = Hashtbl.create (4 * cap); n_edges = 0 }

let ensure_capacity g n =
  let cap = Array.length g.succs in
  if n > cap then begin
    let cap' =
      let rec grow c = if c >= n then c else grow (2 * c) in
      grow cap
    in
    let succs' = Array.make cap' [] in
    Array.blit g.succs 0 succs' 0 g.size;
    g.succs <- succs'
  end

let add_node g =
  ensure_capacity g (g.size + 1);
  let id = g.size in
  g.size <- g.size + 1;
  g.succs.(id) <- [];
  id

let add_nodes g n =
  let rec loop k acc = if k = 0 then List.rev acc else loop (k - 1) (add_node g :: acc) in
  loop n []

let mem_node g v = v >= 0 && v < g.size

let check_node g v =
  if not (mem_node g v) then
    invalid_arg (Printf.sprintf "Digraph: node %d not in graph of size %d" v g.size)

let add_edge g u v =
  check_node g u;
  check_node g v;
  if not (Hashtbl.mem g.edge_set (u, v)) then begin
    Hashtbl.add g.edge_set (u, v) ();
    g.succs.(u) <- v :: g.succs.(u);
    g.n_edges <- g.n_edges + 1
  end

let node_count g = g.size
let edge_count g = g.n_edges

let succ g v =
  check_node g v;
  List.rev g.succs.(v)

let nodes g = List.init g.size (fun i -> i)
let iter_nodes f g = List.iter f (nodes g)

let fold_edges f g acc =
  List.fold_left (fun acc u -> List.fold_left (fun acc v -> f u v acc) acc (succ g u)) acc (nodes g)

let iter_edges f g = fold_edges (fun u v () -> f u v) g ()

let topological_sort g =
  let indeg = Array.make g.size 0 in
  iter_edges (fun _ v -> indeg.(v) <- indeg.(v) + 1) g;
  let queue = Queue.create () in
  iter_nodes (fun v -> if indeg.(v) = 0 then Queue.add v queue) g;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr seen;
    order := u :: !order;
    let lower v =
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then Queue.add v queue
    in
    List.iter lower (succ g u)
  done;
  if !seen = g.size then Some (List.rev !order) else None
