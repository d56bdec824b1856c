(* The per-layer ledger of a traced replay.

   A replay makes the calls the serving path makes, in the same order,
   and times each of these real calls. A real call that hides other
   layers inside it (say [Scheduler.process_one], which lints,
   synthesizes and runs) is split by probes: right after the call
   returns, the nested public functions are called again on the same
   inputs and timed. A node's self time is its duration minus its
   probes' durations. Probes, and the replay's own bookkeeping, are
   left out of the replay's wall time, and the garbage they leave is
   collected outside every timed call. Every name is
   ["<layer>.<what>"]; the layer is the prefix. *)

type node = { name : string; dt : float; mutable kids : float }

type t = {
  mutable on : bool;
  totals : (string, float ref * int ref) Hashtbl.t;  (* ns and calls per name *)
  selfs : (string, float ref) Hashtbl.t;  (* self ns per name *)
  counts : (string, int ref) Hashtbl.t;
  mutable excluded_ns : float;  (* probes and bookkeeping *)
}

let create () =
  {
    on = false;
    totals = Hashtbl.create 64;
    selfs = Hashtbl.create 64;
    counts = Hashtbl.create 64;
    excluded_ns = 0.;
  }

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let bump tbl name init f =
  match Hashtbl.find_opt tbl name with
  | Some v -> f v
  | None ->
    let v = init () in
    Hashtbl.add tbl name v;
    f v

let count t name n = if t.on then bump t.counts name (fun () -> ref 0) (fun r -> r := !r + n)

let timed t name f =
  let t0 = Stats.now_ns () in
  let r = f () in
  let dt = Stats.elapsed_ns t0 in
  bump t.totals name
    (fun () -> (ref 0., ref 0))
    (fun (ns, calls) ->
      ns := !ns +. dt;
      incr calls);
  (r, dt)

let dummy = { name = ""; dt = 0.; kids = 0. }

(* A real call on the serving path. *)
let call t name f =
  if not t.on then (f (), dummy)
  else
    let r, dt = timed t name f in
    (r, { name; dt; kids = 0. })

(* A re-run of a call nested inside [parent]; callers run probes only
   when the ledger is on. *)
let probe t parent name f =
  let r, dt = timed t name f in
  parent.kids <- parent.kids +. dt;
  t.excluded_ns <- t.excluded_ns +. dt;
  (r, { name; dt; kids = 0. })

let close t node =
  if t.on && node != dummy then
    bump t.selfs node.name
      (fun () -> ref 0.)
      (* unclamped: a probe measured a little slower than the call it
         splits must not turn the noise into a bias *)
      (fun r -> r := !r +. (node.dt -. node.kids))

(* A probe with no probes of its own: its self time is all of it. *)
let probe_value t parent name f =
  let r, node = probe t parent name f in
  close t node;
  r

(* Work the replay does that the serving path does not, probes
   included: kept out of the wall time. *)
let aside t f =
  if not t.on then f ()
  else begin
    let before = t.excluded_ns in
    let t0 = Stats.now_ns () in
    let r = f () in
    (* probes run inside [f] are already part of its duration *)
    t.excluded_ns <- before +. Stats.elapsed_ns t0;
    r
  end

(* Collect the garbage probes left, so that no later timed call pays
   for it. *)
let settle t = if t.on then aside t (fun () -> Gc.major_slice 0 |> ignore)

(* Mean microseconds per call; 0 when the name was never called. *)
let mean_us t name =
  match Hashtbl.find_opt t.totals name with
  | Some (ns, c) when !c > 0 -> !ns /. float_of_int !c /. 1e3
  | _ -> 0.

let counted t name = match Hashtbl.find_opt t.counts name with Some r -> !r | None -> 0

let by_self tbl =
  Hashtbl.fold (fun k r xs -> (k, !r) :: xs) tbl []
  |> List.sort (fun (a, x) (b, y) -> match compare y x with 0 -> compare a b | c -> c)

(* Self nanoseconds per name, largest first. *)
let names t = by_self t.selfs

(* Self nanoseconds per layer, largest first. *)
let layers t =
  let acc = Hashtbl.create 8 in
  Hashtbl.iter
    (fun name self -> bump acc (layer name) (fun () -> ref 0.) (fun r -> r := !r +. !self))
    t.selfs;
  by_self acc

let self_total t = List.fold_left (fun acc (_, ns) -> acc +. ns) 0. (layers t)
