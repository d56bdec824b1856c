open Exchange

type analysis = {
  spec : Spec.t;
  outcome : Reduce.outcome;
  sequence : Execution.sequence option;
}

let analyze ?(shared = false) ?obs ?parent spec =
  let reducer =
    if shared then Reduce.run_shared ?obs ?parent else Reduce.run ?obs ?parent
  in
  let outcome = reducer (Sequencing.build ~granular:shared spec) in
  let sequence = Result.to_option (Execution.of_outcome outcome) in
  { spec; outcome; sequence }

let is_feasible ?shared spec = Reduce.feasible (analyze ?shared spec).outcome

let blocking_conjunctions analysis =
  match analysis.outcome.Reduce.verdict with
  | Reduce.Feasible -> []
  | Reduce.Stuck { remaining } ->
    let g = analysis.outcome.Reduce.graph in
    let owners =
      List.map (fun (_, jid, _) -> (Sequencing.conjunction g jid).Sequencing.owner) remaining
    in
    List.sort_uniq Party.compare owners

type rescue = { plans : Indemnity.plan list; analysis : analysis }

let splittable_owners analysis =
  (* §6: only conjunctive edges "of the second type" — a principal
     demanding a bundle — may be removed by an indemnity. Conjunctions
     carrying a red edge are broker-style (type 3) and stay whole. *)
  List.filter
    (fun owner -> Indemnity.splittable analysis.spec ~owner)
    (blocking_conjunctions analysis)

let rescue_with_indemnities ?shared ?analysis spec =
  let rec loop analysis spec plans fuel =
    match analysis.outcome.Reduce.verdict with
    | Reduce.Feasible -> Some { plans = List.rev plans; analysis }
    | Reduce.Stuck _ when fuel = 0 -> None
    | Reduce.Stuck _ -> (
      match splittable_owners analysis with
      | [] -> None
      | owners ->
        (* Split the cheapest-to-indemnify blocking conjunction first. *)
        let plan_of owner = Indemnity.plan_greedy spec ~owner in
        let cheapest =
          List.fold_left
            (fun best owner ->
              let plan = plan_of owner in
              match best with
              | Some (_, t) when t <= plan.Indemnity.total -> best
              | _ -> Some (owner, plan.Indemnity.total))
            None owners
        in
        (match cheapest with
        | None -> None
        | Some (owner, _) ->
          let plan = plan_of owner in
          let split = Indemnity.apply plan spec in
          loop (analyze ?shared split) split (plan :: plans) (fuel - 1)))
  in
  let first = match analysis with Some a -> a | None -> analyze ?shared spec in
  loop first spec [] (List.length (Spec.parties spec) + 1)

let total_indemnity rescue =
  List.fold_left (fun acc p -> acc + p.Indemnity.total) 0 rescue.plans

let merged_plan rescue =
  match rescue.plans with
  | [] -> None
  | [ plan ] -> Some plan
  | plans ->
    let offers = List.concat_map (fun p -> p.Indemnity.offers) plans in
    Some { Indemnity.offers; total = total_indemnity rescue }

let pp_analysis ppf analysis =
  Format.fprintf ppf "@[<v>%a" Reduce.pp_outcome analysis.outcome;
  (match analysis.sequence with
  | Some seq -> Format.fprintf ppf "@,%a" Execution.pp seq
  | None -> ());
  Format.fprintf ppf "@]"
