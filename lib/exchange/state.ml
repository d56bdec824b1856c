module Action_set = Set.Make (struct
  type t = Action.t

  let compare = Action.compare
end)

type t = Action_set.t

let empty = Action_set.empty
let record = Action_set.add
let of_actions actions = List.fold_left (fun s a -> record a s) empty actions
let actions = Action_set.elements
let mem = Action_set.mem
let cardinal = Action_set.cardinal
let union = Action_set.union
let subset = Action_set.subset
let equal = Action_set.equal

let performed_by party state =
  List.filter (fun a -> Party.equal (Action.performer a) party) (actions state)

let net_assets party state =
  let flow (gained, lost) action =
    let apply ~from ~into asset (gained, lost) =
      let gained = if Party.equal into party then Asset.Bag.add asset gained else gained in
      let lost = if Party.equal from party then Asset.Bag.add asset lost else lost in
      (gained, lost)
    in
    match action with
    | Action.Do tr -> apply ~from:tr.source ~into:tr.target tr.asset (gained, lost)
    | Action.Undo tr -> apply ~from:tr.target ~into:tr.source tr.asset (gained, lost)
    | Action.Notify _ -> (gained, lost)
  in
  List.fold_left flow (Asset.Bag.empty, Asset.Bag.empty) (actions state)

type description = { requires : Action.Pattern.t list; permits : Action.Pattern.t list }

let describes requires = { requires; permits = [] }

type acceptability = { descriptions : description list; preferred : description }

let satisfied description state =
  let matched pattern = Action_set.exists (Action.Pattern.matches pattern) state in
  List.for_all matched description.requires

let own_clean description ~party state =
  let allowed = description.requires @ description.permits in
  let tolerated action = List.exists (fun p -> Action.Pattern.matches p action) allowed in
  List.for_all tolerated (performed_by party state)

let acceptable spec ~party state =
  let fits d = satisfied d state && own_clean d ~party state in
  List.exists fits spec.descriptions

let preferred_reached spec state = satisfied spec.preferred state

let always_acceptable =
  let anything =
    {
      requires = [];
      permits =
        Action.Pattern.
          [
            P_do (Any_party, Any_party, Any_asset);
            P_undo (Any_party, Any_party, Any_asset);
            P_notify (Any_party, Any_party);
          ];
    }
  in
  { descriptions = [ anything ]; preferred = anything }
