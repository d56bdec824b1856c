open Exchange

type t = { spec : Spec.t; result : Engine.result }

let of_result spec result = { spec; result }
let log t = t.result.Engine.log

let view_of t party =
  List.filter
    (fun d ->
      Party.equal (Action.performer d.Engine.action) party
      || Party.equal (Action.beneficiary d.Engine.action) party)
    t.result.Engine.log

let performed_by t party =
  List.filter_map
    (fun d ->
      if Party.equal (Action.performer d.Engine.action) party then Some d.Engine.action
      else None)
    t.result.Engine.log

type exposure = { at : int; outlay : Asset.money; goods_out : int; covered : Asset.money }

let price_for = Trust_core.Compile.price_for

let exposure_profile t party =
  let price = price_for t.spec party in
  let outlay = ref 0 and goods_out = ref 0 and covered = ref 0 in
  let apply action =
    match action with
    | Action.Do tr ->
      if Party.equal tr.Action.source party then begin
        outlay := !outlay + price tr.Action.asset;
        if Asset.is_document tr.Action.asset then incr goods_out
      end;
      if Party.equal tr.Action.target party then covered := !covered + price tr.Action.asset
    | Action.Undo tr ->
      (* the asset returns from target to source *)
      if Party.equal tr.Action.source party then begin
        outlay := !outlay - price tr.Action.asset;
        if Asset.is_document tr.Action.asset then decr goods_out
      end;
      if Party.equal tr.Action.target party then covered := !covered - price tr.Action.asset
    | Action.Notify _ -> ()
  in
  (* one sample per tick, after all of that tick's deliveries *)
  let rec walk samples = function
    | [] -> List.rev samples
    | d :: rest ->
      apply d.Engine.action;
      let tick = d.Engine.at in
      let rest_same, rest =
        List.partition (fun d' -> d'.Engine.at = tick) rest
      in
      List.iter (fun d' -> apply d'.Engine.action) rest_same;
      walk ({ at = tick; outlay = !outlay; goods_out = !goods_out; covered = !covered } :: samples) rest
  in
  walk [] t.result.Engine.log

let peak_exposure t party =
  List.fold_left
    (fun peak s -> max peak (max 0 (s.outlay - s.covered)))
    0 (exposure_profile t party)

let total_peak_exposure t =
  List.fold_left (fun acc p -> acc + peak_exposure t p) 0 (Spec.principals t.spec)

let duration t =
  List.fold_left (fun acc d -> max acc d.Engine.at) 0 t.result.Engine.log
