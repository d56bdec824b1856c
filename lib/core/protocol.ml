open Exchange

type condition = Now | Observed of Action.t

type scripted_step = { condition : condition; action : Action.t }

type t = { spec : Spec.t; roles : (Party.t * scripted_step list) list }

let observes party action =
  Party.equal (Action.beneficiary action) party || Party.equal (Action.performer action) party

let synthesize (sequence : Execution.sequence) =
  let actions = Execution.actions sequence in
  let step_for ~earlier action =
    let performer = Action.performer action in
    (* Latest earlier action the performer observes (excluding its own
       earlier actions, which local order already covers); [earlier]
       holds the prefix newest first. *)
    let trigger =
      List.find_opt
        (fun e ->
          Party.equal (Action.beneficiary e) performer
          && not (Party.equal (Action.performer e) performer))
        earlier
    in
    let condition = match trigger with Some a -> Observed a | None -> Now in
    (performer, { condition; action })
  in
  let rec walk earlier = function
    | [] -> []
    | action :: rest -> step_for ~earlier action :: walk (action :: earlier) rest
  in
  let assignments = walk [] actions in
  let parties = Spec.parties sequence.Execution.spec in
  let roles =
    List.filter_map
      (fun party ->
        let steps =
          List.filter_map
            (fun (performer, step) ->
              if Party.equal performer party then Some step else None)
            assignments
        in
        if steps = [] then None else Some (party, steps))
      parties
  in
  { spec = sequence.Execution.spec; roles }

(* Steps that must not be serialized across independent branches: a
   deferred red delivery waits only for the goods it ships (its branch),
   and a persona forward waits only for the payment that secures it —
   otherwise one withheld delivery would stall every other branch's
   deliveries and unfairly trip their deposit forfeits at the deadline. *)
let branch_local spec (step : Execution.step) =
  match step.Execution.origin with
  | Execution.Commit cref -> (
    match Spec.find_deal spec cref.Spec.deal with
    | None -> false
    | Some d ->
      let principal = Spec.commitment_principal d cref.Spec.side in
      List.exists
        (fun owner ->
          Spec.is_priority spec owner cref && not (Spec.is_split spec owner cref))
        [ principal; d.Spec.via ])
  | Execution.Forward deal -> (
    match Spec.find_deal spec deal with
    | None -> false
    | Some d -> Spec.persona_of spec d.Spec.via <> None)
  | Execution.Notification _ -> false

let synthesize_lockstep ?(prologue = []) (sequence : Execution.sequence) =
  let spec = sequence.Execution.spec in
  let prologue_steps =
    List.map (fun action -> { Execution.index = 0; action; origin = Execution.Forward "" }) prologue
  in
  let steps_in_order =
    List.map (fun s -> (s, false)) prologue_steps
    @ List.map (fun s -> (s, branch_local spec s)) sequence.Execution.steps
  in
  let actions = Array.of_list (List.map (fun (s, _) -> s.Execution.action) steps_in_order) in
  let local_trigger i action =
    (* the latest earlier delivery the performer observes locally *)
    let performer = Action.performer action in
    let rec latest j best =
      if j >= i then best
      else
        let earlier = actions.(j) in
        let best =
          if
            Party.equal (Action.beneficiary earlier) performer
            && not (Party.equal (Action.performer earlier) performer)
          then Some earlier
          else best
        in
        latest (j + 1) best
    in
    match latest 0 None with Some a -> Observed a | None -> Now
  in
  let steps =
    List.mapi
      (fun i (step, local) ->
        let action = step.Execution.action in
        let condition =
          if i = 0 then Now
          else if local then local_trigger i action
          else Observed actions.(i - 1)
        in
        (Action.performer action, { condition; action }))
      steps_in_order
  in
  let roles =
    List.filter_map
      (fun party ->
        match
          List.filter_map
            (fun (performer, step) ->
              if Party.equal performer party then Some step else None)
            steps
        with
        | [] -> None
        | mine -> Some (party, mine))
      (Spec.parties sequence.Execution.spec)
  in
  { spec = sequence.Execution.spec; roles }

let script_of t party =
  match List.find_opt (fun (p, _) -> Party.equal p party) t.roles with
  | Some (_, steps) -> steps
  | None -> []

let equal_condition a b =
  match (a, b) with
  | Now, Now -> true
  | Observed x, Observed y -> Action.equal x y
  | (Now | Observed _), _ -> false

let equal_step a b = equal_condition a.condition b.condition && Action.equal a.action b.action

let equal_roles a b =
  List.length a.roles = List.length b.roles
  && List.for_all2
       (fun (pa, sa) (pb, sb) ->
         Party.equal pa pb
         && List.length sa = List.length sb
         && List.for_all2 equal_step sa sb)
       a.roles b.roles

let pp_condition ppf = function
  | Now -> Format.pp_print_string ppf "now"
  | Observed a -> Format.fprintf ppf "after %a" Action.pp a

let pp ppf t =
  Format.fprintf ppf "@[<v>protocol:";
  List.iter
    (fun (party, steps) ->
      Format.fprintf ppf "@,  %a:" Party.pp party;
      List.iter
        (fun s -> Format.fprintf ppf "@,    [%a] %a" pp_condition s.condition Action.pp s.action)
        steps)
    t.roles;
  Format.fprintf ppf "@]"
