(* Per-spec lookup tables, built once per synthesis.

   Cold synthesis asks the same questions of a spec over and over: what
   a party paid for a document, which agents coordinate a bundle, who
   may hold an asset in custody, which deals a defector can stall.
   Answered by scanning [Spec.commitments] each time, those questions
   nest whole-spec scans inside per-action and per-party loops. Here
   every answer is read off a table built in one pass. An index is
   never stored in a cache entry: it lives for one synthesis (or one
   ledger fold) and is dropped with it. *)

open Exchange

type t = {
  spec : Spec.t;
  commitments : (Spec.commitment_ref * Spec.deal) list;
  deals : (string, Spec.deal) Hashtbl.t;
  own : (Party.t, (Spec.commitment_ref * Spec.deal) list) Hashtbl.t;
      (* each principal's own-side commitments, commitment order *)
  basis : (Party.t * string, Asset.money) Hashtbl.t;
      (* what a document is worth to a party (price_for) *)
  persona_senders : (Party.t * Asset.t, Party.t list) Hashtbl.t;
      (* (persona, asset) -> principals whose side it holds in custody *)
  bundles : (Party.t * Party.t) list;
  feeders : (string, string list) Hashtbl.t;
      (* deal -> deals whose completion supplies one of its documents *)
  touched : (Party.t, string list) Hashtbl.t;  (* memo, per defector *)
}

let push tbl key v =
  Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

let make spec =
  let commitments = Spec.commitments spec in
  let deals = Hashtbl.create 16 in
  List.iter
    (fun (d : Spec.deal) ->
      if not (Hashtbl.mem deals d.Spec.id) then Hashtbl.replace deals d.Spec.id d)
    spec.Spec.deals;
  (* reverse commitment order, so consing leaves lists in order *)
  let backwards = List.rev commitments in
  let own = Hashtbl.create 16 in
  List.iter
    (fun ((cref, d) as c) -> push own (Spec.commitment_principal d cref.Spec.side) c)
    backwards;
  (* §5 valuation of documents: the first deal side where the party
     receives the document prices it at what the party sends there;
     failing that, the first side where it sends the document, at what
     it receives. The receiving pass runs first and wins. *)
  let basis = Hashtbl.create 16 in
  let record ~receiving =
    List.iter
      (fun ((cref : Spec.commitment_ref), d) ->
        let side = cref.Spec.side in
        let flow, counter =
          if receiving then (Spec.commitment_expects d side, Spec.commitment_sends d side)
          else (Spec.commitment_sends d side, Spec.commitment_expects d side)
        in
        match flow with
        | Asset.Document doc ->
          let key = (Spec.commitment_principal d side, doc) in
          if not (Hashtbl.mem basis key) then Hashtbl.replace basis key (Asset.value counter)
        | Asset.Money _ -> ())
      commitments
  in
  record ~receiving:true;
  record ~receiving:false;
  let persona_senders = Hashtbl.create 4 in
  List.iter
    (fun ((cref : Spec.commitment_ref), d) ->
      let holder = Spec.effective_agent spec d in
      let principal = Spec.commitment_principal d cref.Spec.side in
      if
        Party.is_principal holder
        && (not (Party.equal principal holder))
        && not (Party.equal (Spec.commitment_principal d (Spec.other_side cref.Spec.side)) holder)
      then push persona_senders (holder, Spec.commitment_sends d cref.Spec.side) principal)
    backwards;
  (* document supply: deal [e] feeds deal [d] when a principal resells
     in [d] a document it acquires in [e] *)
  let acquirers = Hashtbl.create 16 in
  List.iter
    (fun ((cref : Spec.commitment_ref), (e : Spec.deal)) ->
      match Spec.commitment_expects e cref.Spec.side with
      | Asset.Document doc ->
        push acquirers (Spec.commitment_principal e cref.Spec.side, doc) e.Spec.id
      | Asset.Money _ -> ())
    backwards;
  let feeders = Hashtbl.create 16 in
  List.iter
    (fun (d : Spec.deal) ->
      let from side =
        match Spec.commitment_sends d side with
        | Asset.Document doc ->
          Option.value ~default:[]
            (Hashtbl.find_opt acquirers (Spec.commitment_principal d side, doc))
        | Asset.Money _ -> []
      in
      Hashtbl.replace feeders d.Spec.id (from Spec.Left @ from Spec.Right))
    spec.Spec.deals;
  {
    spec;
    commitments;
    deals;
    own;
    basis;
    persona_senders;
    bundles = Sequencing.coordinated_bundles spec;
    feeders;
    touched = Hashtbl.create 8;
  }

let spec t = t.spec
let commitments t = t.commitments
let find_deal t id = Hashtbl.find_opt t.deals id
let own_commitments t party = Option.value ~default:[] (Hashtbl.find_opt t.own party)

let price t party = function
  | Asset.Money m -> m
  | Asset.Document doc -> Option.value ~default:0 (Hashtbl.find_opt t.basis (party, doc))

let single_transfer_bound ?price:p t party =
  let price = match p with Some p -> p | None -> price t in
  List.fold_left
    (fun acc ((cref : Spec.commitment_ref), d) ->
      max acc (price party (Spec.commitment_sends d cref.Spec.side)))
    0 (own_commitments t party)

let coordinates t agent = List.exists (fun (_, a) -> Party.equal a agent) t.bundles

let custody_holder t ~src ~src_had_custody holder asset =
  Party.is_trusted holder
  || Party.is_principal holder
     && Hashtbl.length t.persona_senders > 0
     &&
     match Hashtbl.find_opt t.persona_senders (holder, asset) with
     | None -> false
     | Some senders -> src_had_custody || List.exists (Party.equal src) senders

let touched_deals t q =
  match Hashtbl.find_opt t.touched q with
  | Some deals -> deals
  | None ->
    let deals = t.spec.Spec.deals in
    let seed =
      List.filter_map
        (fun (d : Spec.deal) ->
          if Party.equal d.Spec.left q || Party.equal d.Spec.right q then Some d.Spec.id else None)
        deals
    in
    let reached = Hashtbl.create 8 in
    List.iter (fun id -> Hashtbl.replace reached id ()) seed;
    (* each round adds, in deal order, every deal a reached deal
       supplies; the newest round goes in front *)
    let rec close touched =
      let more =
        List.filter_map
          (fun (d : Spec.deal) ->
            if Hashtbl.mem reached d.Spec.id then None
            else if List.exists (Hashtbl.mem reached) (Hashtbl.find t.feeders d.Spec.id) then
              Some d.Spec.id
            else None)
          deals
      in
      if more = [] then touched
      else begin
        List.iter (fun id -> Hashtbl.replace reached id ()) more;
        close (more @ touched)
      end
    in
    let result = close seed in
    Hashtbl.replace t.touched q result;
    result
