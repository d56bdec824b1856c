(* Abstract interpretation of the synthesized protocol: per-principal
   worst-case exposure over every legal lockstep interleaving and every
   single-party defection pattern, without enumerating executions.

   Each emitted step of the execution sequence compiles to a set of
   risk deltas (release / receive, valued at the affected principal's
   own cost basis), mirroring the dynamic exposure ledger's accounting
   (lib/sim/exposure.ml): escrow at a genuine trusted agent is
   protected; custody handed to a third-party persona is released the
   moment it is committed; a commit whose effective agent is the
   counterparty itself (§4.2.3 direct trust) is already the delivery.

   In lockstep, every legal interleaving delivers a prefix of the
   synthesized total order, so the honest worst case is the maximum of
   a principal's net position over prefixes. A single defector [q] can
   additionally stall any deal it participates in — and, through
   document-supply chains, any deal depending on one of [q]'s — at an
   arbitrary point of that deal's own step prefix while the rest of
   the schedule runs on. The abstract worst case therefore joins, per
   touched deal, the deal's own maximal prefix contribution (the
   lattice join over all cut states of that escrow slot) on top of the
   untouched schedule's worst prefix. Granting the adversary per-deal
   independent stalling power over-approximates the engine's defection
   semantics (a real Silent/Partial defector stalls one global suffix
   of its script), so the computed interval is a sound upper bound on
   every dynamic peak the simulation battery can produce. Deadline
   unwinds only return escrow and indemnity deposits only add cover,
   so ignoring both preserves the upper bound. *)

open Exchange
module Execution = Trust_core.Execution
module Spec_index = Trust_core.Spec_index

type delta = {
  d_party : Party.t;
  d_release : Asset.money;  (** value leaving the party's control *)
  d_receive : Asset.money;  (** value finally delivered to the party *)
}

type astep = {
  a_index : int;  (** the execution step's 1-based index *)
  a_deal : string option;  (** owning deal; [None] for notifications *)
  a_step : Execution.step;  (** rendered on demand by [label] *)
  a_deltas : delta list;
}

type witness = {
  w_defector : Party.t option;
  w_at_risk : Asset.money;
  w_kept : astep list;  (** the maximizing schedule, original order *)
  w_stalled : (string * int) list;
      (** touched deals: (deal, steps the defector lets through) *)
}

type interval = {
  i_party : Party.t;
  i_bound : Asset.money;
  i_lo : Asset.money;  (** honest-run peak *)
  i_hi : Asset.money;  (** worst case over defectors and interleavings *)
  i_witness : witness;
}

type t = { spec : Spec.t; steps : astep list; intervals : interval list }

let proved i = i.i_hi <= i.i_bound

(* ------------------------------------------------------------------ *)
(* Compiling steps to deltas.                                          *)

let release p v = { d_party = p; d_release = v; d_receive = 0 }
let receive p v = { d_party = p; d_release = 0; d_receive = v }

let pp_origin ppf = function
  | Execution.Commit cref -> Format.fprintf ppf "commit %a" Spec.pp_ref cref
  | Execution.Forward deal -> Format.fprintf ppf "forward %s" deal
  | Execution.Notification owner ->
    Format.fprintf ppf "conjunction %s" (Party.name owner)

let label a =
  Format.asprintf "%a  (%a)" Action.pp a.a_step.Execution.action pp_origin
    a.a_step.Execution.origin

let compile_step index price (step : Execution.step) =
  let spec = Spec_index.spec index in
  let deal, deltas =
    match (step.Execution.origin, step.Execution.action) with
    | Execution.Notification _, _ | _, Action.Notify _ -> (None, [])
    | _, Action.Undo _ ->
      (* synthesized sequences contain no unwinds; refunds only return
         escrow, so treating one as a no-op stays an upper bound *)
      (None, [])
    | Execution.Commit cref, Action.Do _ -> (
      match Spec_index.find_deal index cref.Spec.deal with
      | None -> (None, [])
      | Some d ->
        let side = cref.Spec.side in
        let principal = Spec.commitment_principal d side in
        let counterpart = Spec.commitment_principal d (Spec.other_side side) in
        let agent = Spec.effective_agent spec d in
        let asset = Spec.commitment_sends d side in
        let deltas =
          if Party.equal principal agent then
            (* virtual commit (§4.2.4): not even emitted; defensive *)
            []
          else if Party.equal counterpart agent then
            (* direct trust: the commit is itself the delivery *)
            [
              release principal (price principal asset);
              receive counterpart (price counterpart asset);
            ]
          else if Party.is_principal agent then
            (* custody at a third-party persona: out of the principal's
               hands and into another principal's — at risk now *)
            [ release principal (price principal asset) ]
          else (* genuine trusted agent: protected escrow *) []
        in
        (Some d.Spec.id, deltas))
    | Execution.Forward id, Action.Do tr -> (
      match Spec_index.find_deal index id with
      | None -> (Some id, [])
      | Some d ->
        (* the forwarded asset is the [side] principal's commitment,
           delivered to the counter-side principal *)
        let side_of s =
          Asset.equal (Spec.commitment_sends d s) tr.Action.asset
          && Party.equal
               (Spec.commitment_principal d (Spec.other_side s))
               tr.Action.target
        in
        let side =
          if side_of Spec.Left then Some Spec.Left
          else if side_of Spec.Right then Some Spec.Right
          else None
        in
        (match side with
        | None -> (Some id, [])
        | Some side ->
          let principal = Spec.commitment_principal d side in
          let counterpart = Spec.commitment_principal d (Spec.other_side side) in
          let agent = Spec.effective_agent spec d in
          let asset = Spec.commitment_sends d side in
          let releases =
            if Party.equal principal agent then
              (* own-agent commit was virtual: the outlay happens here *)
              [ release principal (price principal asset) ]
            else if Party.is_trusted agent then
              (* escrow settles away from the contributor *)
              [ release principal (price principal asset) ]
            else (* persona custody: already released at commit *) []
          in
          ( Some id,
            releases @ [ receive counterpart (price counterpart asset) ] )))
  in
  { a_index = step.Execution.index; a_deal = deal; a_step = step; a_deltas = deltas }

(* Principals that do not play a trusted role — the parties whose
   defection the formalism claims to protect against (a persona is
   trusted by construction; mirror of Harness.defectable_principals). *)
let defectable spec =
  let persona_principals =
    List.map snd (Party.Map.bindings spec.Spec.personas)
  in
  List.filter
    (fun p -> not (List.exists (Party.equal p) persona_principals))
    (Spec.principals spec)

(* ------------------------------------------------------------------ *)
(* Interval computation.

   Steps are addressed by their position in the sequence. Each
   principal's net position change per step is tabulated once, so the
   per-defector worst cases below are integer prefix scans. *)

(* Maximal prefix sum of [net] over the positions [ords], with the
   length of the first prefix attaining it. The empty prefix is legal,
   so the result is >= 0. *)
let max_prefix net ords =
  let sum = ref 0 and best = ref 0 and best_len = ref 0 in
  for i = 0 to Array.length ords - 1 do
    sum := !sum + net.(ords.(i));
    if !sum > !best then begin
      best := !sum;
      best_len := i + 1
    end
  done;
  (!best, !best_len)

(* What one defector (or none: the honest run) can do to the
   schedule: the steps it leaves running, and the own steps of every
   deal it can stall, in [Spec_index.touched_deals] order. Computed
   once per defector and shared by every principal's interval. *)
type reach = {
  r_defector : Party.t option;
  r_base : int array;
  r_stalls : (string * int array) list;
}

let risk_of net r =
  List.fold_left
    (fun acc (_, own) -> acc + fst (max_prefix net own))
    (fst (max_prefix net r.r_base))
    r.r_stalls

(* The maximizing schedule behind [risk_of]: the untouched schedule's
   worst prefix joined with each stalled deal's own worst prefix, in
   step-index order ([order] lists the positions by index). *)
let witness_of steps order net r =
  let base_risk, base_len = max_prefix net r.r_base in
  let stalls =
    List.map
      (fun (deal, own) ->
        let gain, kept = max_prefix net own in
        (deal, own, gain, kept))
      r.r_stalls
  in
  let risk = List.fold_left (fun acc (_, _, g, _) -> acc + g) base_risk stalls in
  let kept = Array.make (Array.length steps) false in
  let keep ords len = for i = 0 to len - 1 do kept.(ords.(i)) <- true done in
  keep r.r_base base_len;
  List.iter (fun (_, own, _, len) -> keep own len) stalls;
  let kept_steps =
    Array.fold_right (fun o acc -> if kept.(o) then steps.(o) :: acc else acc) order []
  in
  let stalled =
    List.filter_map
      (fun (deal, own, _, kept) ->
        if kept < Array.length own then Some (deal, kept) else None)
      stalls
  in
  { w_defector = r.r_defector; w_at_risk = risk; w_kept = kept_steps; w_stalled = stalled }

let reaches index steps defectables =
  let by_deal : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  for o = Array.length steps - 1 downto 0 do
    match steps.(o).a_deal with
    | Some deal ->
      Hashtbl.replace by_deal deal (o :: Option.value ~default:[] (Hashtbl.find_opt by_deal deal))
    | None -> ()
  done;
  let own_steps : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter (fun deal ords -> Hashtbl.replace own_steps deal (Array.of_list ords)) by_deal;
  let own deal = (deal, Option.value ~default:[||] (Hashtbl.find_opt own_steps deal)) in
  List.filter_map
    (fun q ->
      match Spec_index.touched_deals index q with
      | [] -> None
      | touched ->
        let stalled = Hashtbl.create 8 in
        List.iter (fun deal -> Hashtbl.replace stalled deal ()) touched;
        let base = ref [] in
        for o = Array.length steps - 1 downto 0 do
          match steps.(o).a_deal with
          | Some deal when Hashtbl.mem stalled deal -> ()
          | Some _ | None -> base := o :: !base
        done;
        Some
          { r_defector = Some q; r_base = Array.of_list !base; r_stalls = List.map own touched })
    defectables

let interval_of index steps order honest reaches party =
  let bound = Spec_index.single_transfer_bound index party in
  let net =
    Array.map
      (fun s ->
        List.fold_left
          (fun acc d ->
            if Party.equal d.d_party party then acc + d.d_release - d.d_receive else acc)
          0 s.a_deltas)
      steps
  in
  let lo = risk_of net honest in
  (* the first reach attaining the worst case; only its schedule is built *)
  let worst, _ =
    List.fold_left
      (fun ((_, best) as acc) r ->
        match r.r_defector with
        | Some q when Party.equal q party -> acc
        | Some _ | None ->
          let risk = risk_of net r in
          if risk > best then (r, risk) else acc)
      (honest, lo) reaches
  in
  let witness = witness_of steps order net worst in
  { i_party = party; i_bound = bound; i_lo = lo; i_hi = witness.w_at_risk; i_witness = witness }

let of_sequence ?index (seq : Execution.sequence) =
  let spec = seq.Execution.spec in
  let index = match index with Some index -> index | None -> Spec_index.make spec in
  let price = Spec_index.price index in
  let steps = List.map (compile_step index price) seq.Execution.steps in
  let positions = Array.of_list steps in
  let honest =
    { r_defector = None; r_base = Array.init (Array.length positions) Fun.id; r_stalls = [] }
  in
  let reaches = reaches index positions (defectable spec) in
  let order = Array.init (Array.length positions) Fun.id in
  Array.stable_sort
    (fun a b -> Int.compare positions.(a).a_index positions.(b).a_index)
    order;
  let intervals =
    List.map (interval_of index positions order honest reaches) (Spec.principals spec)
  in
  { spec; steps; intervals }

let pp_interval ppf i =
  Format.fprintf ppf "%s: bound=%a honest=%a worst=%a %s" (Party.name i.i_party)
    Asset.pp_money i.i_bound Asset.pp_money i.i_lo Asset.pp_money i.i_hi
    (if proved i then "proved" else "REFUTED")

let pp ppf t =
  Format.fprintf ppf "@[<v>static exposure (%d steps):@,%a@]"
    (List.length t.steps)
    (Format.pp_print_list pp_interval)
    t.intervals
