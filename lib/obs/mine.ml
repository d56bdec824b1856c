(* The scoreboard is a pure fold over span views keyed by the [shape]
   root attribute, so the offline path (TSR1 dump), the live drain and
   the re-parsed JSONL export all produce byte-identical results: they
   share the views, and everything below is deterministic in them. *)

module SM = Map.Make (String)

type row = {
  shape : string;
  sessions : int;
  k_sampled : int;
  k_violation : int;
  k_retry : int;
  k_expiry : int;
  k_lint : int;
  settled : int;
  expired : int;
  aborted : int;
  retried : int;
  attempts : int;
  violations : int;
  violation_sessions : int;
  exposure_ticks : int;
  ticks : int;
  self_vt : (string * int) list;
}

type t = { rows : row SM.t; total : int }

let empty = { rows = SM.empty; total = 0 }

let zero shape =
  {
    shape;
    sessions = 0;
    k_sampled = 0;
    k_violation = 0;
    k_retry = 0;
    k_expiry = 0;
    k_lint = 0;
    settled = 0;
    expired = 0;
    aborted = 0;
    retried = 0;
    attempts = 0;
    violations = 0;
    violation_sessions = 0;
    exposure_ticks = 0;
    ticks = 0;
    self_vt = [];
  }

let find_attr views key =
  List.fold_left
    (fun acc (v : Obs.span_view) ->
      match acc with
      | Some _ -> acc
      | None -> List.assoc_opt key v.Obs.view_attrs)
    None views

let str_attr views key =
  match find_attr views key with Some (Obs.Str s) -> Some s | _ -> None

let merge_self_vt acc stats =
  List.fold_left
    (fun acc (ps : Analysis.phase_stat) ->
      if ps.Analysis.ps_self_vt = 0 then acc
      else
        SM.update ps.Analysis.ps_phase
          (fun prev -> Some (ps.Analysis.ps_self_vt + Option.value ~default:0 prev))
          acc)
    acc stats

let fold_session t (views : Obs.span_view list) =
  let shape = Option.value ~default:"-" (str_attr views "shape") in
  (* the session root span carries the shape and the outcome facts;
     daemon traces wrap it under [daemon.request], so locate it by the
     attribute rather than by position *)
  let info =
    List.find_opt (fun (v : Obs.span_view) -> List.mem_assoc "shape" v.Obs.view_attrs) views
  in
  let geti key =
    match info with
    | None -> 0
    | Some v -> (
      match List.assoc_opt key v.Obs.view_attrs with Some (Obs.Int n) -> n | _ -> 0)
  in
  let status =
    match info with
    | None -> ""
    | Some v -> (
      match List.assoc_opt "status" v.Obs.view_attrs with Some (Obs.Str s) -> s | _ -> "")
  in
  let keep = Option.value ~default:"" (str_attr views "keep") in
  let attempts = geti "attempts" in
  let violations = geti "violations" in
  let r = try SM.find shape t.rows with Not_found -> zero shape in
  let self_vt =
    merge_self_vt
      (List.fold_left (fun acc (k, v) -> SM.add k v acc) SM.empty r.self_vt)
      (Analysis.phase_stats (Analysis.of_views views))
  in
  let r =
    {
      r with
      sessions = r.sessions + 1;
      k_sampled = (r.k_sampled + if keep = "sampled" then 1 else 0);
      k_violation = (r.k_violation + if keep = "violation" then 1 else 0);
      k_retry = (r.k_retry + if keep = "retry" then 1 else 0);
      k_expiry = (r.k_expiry + if keep = "expiry" then 1 else 0);
      k_lint = (r.k_lint + if keep = "lint" then 1 else 0);
      settled = (r.settled + if status = "settled" then 1 else 0);
      expired = (r.expired + if status = "expired" then 1 else 0);
      aborted = (r.aborted + if status = "aborted" then 1 else 0);
      retried = (r.retried + if attempts > 1 then 1 else 0);
      attempts = r.attempts + attempts;
      violations = r.violations + violations;
      violation_sessions = (r.violation_sessions + if violations > 0 then 1 else 0);
      exposure_ticks = r.exposure_ticks + geti "exposure_ticks";
      ticks = r.ticks + geti "ticks";
      self_vt = SM.bindings self_vt;
    }
  in
  { rows = SM.add shape r t.rows; total = t.total + 1 }

let add_views t (views : Obs.span_view list) =
  (* group by session id, preserving per-session span order; fold in
     ascending session order (the sums are commutative, but a canonical
     order keeps the fold itself reproducible) *)
  let by_session : (int, Obs.span_view list ref) Hashtbl.t = Hashtbl.create 64 in
  let ids = ref [] in
  List.iter
    (fun (v : Obs.span_view) ->
      match Hashtbl.find_opt by_session v.Obs.view_session with
      | Some acc -> acc := v :: !acc
      | None ->
        ids := v.Obs.view_session :: !ids;
        Hashtbl.add by_session v.Obs.view_session (ref [ v ]))
    views;
  List.fold_left
    (fun t id -> fold_session t (List.rev !(Hashtbl.find by_session id)))
    t
    (List.sort compare !ids)

let of_views views = add_views empty views

let of_sessions (sessions : Ring.session list) =
  List.fold_left (fun t (s : Ring.session) -> add_views t s.Ring.s_views) empty sessions

let sessions t = t.total
let shapes t = SM.cardinal t.rows

let incidents r = r.retried + r.expired

let severity a b =
  (* worst first: violations, then retry/expiry incidents, then
     traffic; shape hex breaks ties for a total order *)
  match compare b.violation_sessions a.violation_sessions with
  | 0 -> (
    match compare (incidents b) (incidents a) with
    | 0 -> (
      match compare b.sessions a.sessions with
      | 0 -> compare a.shape b.shape
      | c -> c)
    | c -> c)
  | c -> c

let rows t = List.sort severity (List.map snd (SM.bindings t.rows))

let retry_rate r = if r.sessions = 0 then 0. else float_of_int r.retried /. float_of_int r.sessions
let expiry_rate r = if r.sessions = 0 then 0. else float_of_int r.expired /. float_of_int r.sessions

let pin_candidates ?(min_incidents = 1) t =
  rows t
  |> List.filter (fun r ->
         r.shape <> "-" && r.violation_sessions = 0 && incidents r >= min_incidents)
  |> List.sort (fun a b ->
         match compare (incidents b) (incidents a) with
         | 0 -> (
           match compare b.sessions a.sessions with
           | 0 -> compare a.shape b.shape
           | c -> c)
         | c -> c)
  |> List.map (fun r -> r.shape)

let deny_candidates ?(min_violations = 1) t =
  rows t
  |> List.filter (fun r -> r.shape <> "-" && r.violation_sessions >= min_violations)
  |> List.map (fun r -> r.shape)

let json t =
  let int = Json.int in
  let row r =
    let keeps =
      [ ("sampled", int r.k_sampled); ("violation", int r.k_violation); ("retry", int r.k_retry);
        ("expiry", int r.k_expiry); ("lint", int r.k_lint) ]
    in
    Json.Obj
      [ ("shape", Json.Str r.shape); ("sessions", int r.sessions); ("keeps", Json.Obj keeps);
        ("settled", int r.settled); ("expired", int r.expired); ("aborted", int r.aborted);
        ("retried", int r.retried); ("attempts", int r.attempts);
        ("retry_rate", Json.fixed 4 (retry_rate r)); ("expiry_rate", Json.fixed 4 (expiry_rate r));
        ("violations", int r.violations); ("violation_sessions", int r.violation_sessions);
        ("exposure_ticks", int r.exposure_ticks); ("ticks", int r.ticks);
        ("self_vt", Json.Obj (List.map (fun (phase, vt) -> (phase, int vt)) r.self_vt)) ]
  in
  Json.to_string
    (Json.Obj
       [ ("sessions", int (sessions t)); ("shapes", int (shapes t));
         ("rows", Json.Arr (List.map row (rows t))) ])

let table t =
  let top_phases r =
    let worst =
      List.sort
        (fun (pa, va) (pb, vb) ->
          match compare vb va with 0 -> compare pa pb | c -> c)
        r.self_vt
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    String.concat ", "
      (List.map (fun (phase, vt) -> Printf.sprintf "%s %d" phase vt) (take 3 worst))
  in
  Report.Table.render
    ~header:
      [
        "shape";
        "sessions";
        "keeps s/v/r/e/l";
        "retry%";
        "expiry%";
        "violations";
        "risk ticks";
        "self vt (top phases)";
      ]
    (List.map
       (fun r ->
         [
           r.shape;
           string_of_int r.sessions;
           Printf.sprintf "%d/%d/%d/%d/%d" r.k_sampled r.k_violation r.k_retry r.k_expiry
             r.k_lint;
           Printf.sprintf "%.1f" (100. *. retry_rate r);
           Printf.sprintf "%.1f" (100. *. expiry_rate r);
           string_of_int r.violations;
           string_of_int r.exposure_ticks;
           top_phases r;
         ])
       (rows t))
