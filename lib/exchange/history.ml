type t = { rev_entries : (int option * Action.t) list }

let empty = { rev_entries = [] }
let append action t = { rev_entries = (None, action) :: t.rev_entries }
let of_actions actions = List.fold_left (fun t a -> append a t) empty actions

let of_deliveries deliveries =
  { rev_entries = List.rev_map (fun (at, action) -> (Some at, action)) deliveries }

let entries t = List.rev t.rev_entries
let actions t = List.map snd (entries t)
let length t = List.length t.rev_entries
let to_state t = State.of_actions (actions t)

type violation =
  | Undo_without_do of Action.transfer
  | Undo_before_do of Action.transfer
  | Duplicate_do of Action.transfer
  | Duplicate_undo of Action.transfer

let transfer_equal a b =
  Party.equal a.Action.source b.Action.source
  && Party.equal a.Action.target b.Action.target
  && Asset.equal a.Action.asset b.Action.asset

(* Index the Do / Undo positions of each distinct transfer. *)
let occurrences t =
  let table : (Action.transfer * (int list * int list)) list ref = ref [] in
  let record tr ~undo idx =
    let rec update = function
      | [] -> [ (tr, if undo then ([], [ idx ]) else ([ idx ], [])) ]
      | (tr', (dos, undos)) :: rest when transfer_equal tr tr' ->
        (tr', if undo then (dos, undos @ [ idx ]) else (dos @ [ idx ], undos)) :: rest
      | entry :: rest -> entry :: update rest
    in
    table := update !table
  in
  List.iteri
    (fun idx (_, action) ->
      match action with
      | Action.Do tr -> record tr ~undo:false idx
      | Action.Undo tr -> record tr ~undo:true idx
      | Action.Notify _ -> ())
    (entries t);
  !table

let well_formed t =
  let violations =
    List.concat_map
      (fun (tr, (dos, undos)) ->
        let dups =
          (if List.length dos > 1 then [ Duplicate_do tr ] else [])
          @ if List.length undos > 1 then [ Duplicate_undo tr ] else []
        in
        let pairing =
          match (dos, undos) with
          | [], _ :: _ -> [ Undo_without_do tr ]
          | do_idx :: _, undo_idx :: _ when undo_idx < do_idx -> [ Undo_before_do tr ]
          | _ -> []
        in
        dups @ pairing)
      (occurrences t)
  in
  match violations with [] -> Ok () | vs -> Error vs

let compensation_pairs t =
  List.filter_map
    (fun (tr, (dos, undos)) ->
      match (dos, undos) with
      | do_idx :: _, undo_idx :: _ when do_idx < undo_idx -> Some (tr, do_idx, undo_idx)
      | _ -> None)
    (occurrences t)

let open_transfers t =
  let opens =
    List.filter_map
      (fun (tr, (dos, undos)) ->
        match (dos, undos) with
        | do_idx :: _, [] -> Some (do_idx, tr)
        | _ -> None)
      (occurrences t)
  in
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) opens)

let compensating_tail t =
  List.rev_map (fun tr -> Action.Undo tr) (open_transfers t)

let saga_for spec ~party t =
  well_formed t = Ok () && Outcomes.acceptable spec ~party (to_state t)

let pp_violation ppf v =
  let tr_pp ppf tr = Action.pp ppf (Action.Do tr) in
  match v with
  | Undo_without_do tr -> Format.fprintf ppf "undo without do: %a" tr_pp tr
  | Undo_before_do tr -> Format.fprintf ppf "undo before do: %a" tr_pp tr
  | Duplicate_do tr -> Format.fprintf ppf "duplicate do: %a" tr_pp tr
  | Duplicate_undo tr -> Format.fprintf ppf "duplicate undo: %a" tr_pp tr
