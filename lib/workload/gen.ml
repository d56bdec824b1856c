open Exchange

(* Every shape is built once, over a cast: the functions that name each
   party the shape needs. The fixed cast below names them "c", "p",
   "b<i>", "s<i>", "t<i>" (the names the batch shape hashes pin);
   {!Universe} passes a cast that draws each party from a Zipf law, so
   the order in which a builder calls the cast is the order of its
   PRNG draws and must not change. *)
type cast = {
  consumer : unit -> Party.t;
  producer : int -> Party.t;
  source : int -> Party.t;
  broker : int -> Party.t;
  agent : int -> Party.t;
}

let numbered make prefix i = make (Printf.sprintf "%s%d" prefix i)

let fixed_cast =
  {
    consumer = (fun () -> Party.consumer "c");
    producer = (fun i -> if i = 0 then Party.producer "p" else numbered Party.producer "p" i);
    source = numbered Party.producer "s";
    broker = numbered Party.broker "b";
    agent = numbered Party.trusted "t";
  }

(* Links are numbered from the consumer: link 0 is consumer <-> broker 1,
   link i is broker i <-> broker i+1, link n is broker n <-> producer.
   Deals are listed producer-end first so the deterministic reducer
   unwinds the chain the way §4.2.2 walks Example #1. Draws: consumer,
   producer, brokers 1..n, agents 0..n. *)
let chain_of cast ~direct n =
  if n < 0 then invalid_arg "Gen.chain: negative broker count";
  let consumer = cast.consumer () in
  let producer = cast.producer 0 in
  let broker = Array.init n (fun k -> cast.broker (k + 1)) in
  let agent = Array.init (n + 1) cast.agent in
  let seller_of_link i = if i = n then producer else broker.(i) in
  let buyer_of_link i = if i = 0 then consumer else broker.(i - 1) in
  let link i =
    Spec.sale
      ~id:(Printf.sprintf "link%d" i)
      ~buyer:(buyer_of_link i) ~seller:(seller_of_link i) ~via:agent.(i)
      ~price:(Asset.dollars (10 + n - i))
      ~good:"d"
  in
  let deals = List.init (n + 1) (fun k -> link (n - k)) in
  let priorities =
    (* Broker i sells on link i-1: it must have that buyer committed
       before it buys on link i. *)
    List.init n (fun k ->
        (broker.(k), { Spec.deal = Printf.sprintf "link%d" k; side = Spec.Right }))
  in
  let personas =
    if direct then List.init (n + 1) (fun i -> (agent.(i), seller_of_link i)) else []
  in
  Spec.make_exn ~personas ~priorities deals

(* Draws: consumer, then per document broker, source, inner agent, outer
   agent. *)
let fan_of cast prices =
  if prices = [] then invalid_arg "Gen.fan: empty price list";
  let consumer = cast.consumer () in
  let leg idx price =
    let i = idx + 1 in
    let doc = Printf.sprintf "d%d" i in
    let broker = cast.broker i in
    let source = cast.source i in
    let inner_via = cast.agent (2 * i) in
    let outer_via = cast.agent ((2 * i) - 1) in
    ( broker,
      [
        Spec.sale
          ~id:(Printf.sprintf "b%ds%d" i i)
          ~buyer:broker ~seller:source ~via:inner_via ~price:(price * 8 / 10) ~good:doc;
        Spec.sale ~id:(Printf.sprintf "cb%d" i) ~buyer:consumer ~seller:broker ~via:outer_via ~price
          ~good:doc;
      ] )
  in
  let legs = List.mapi leg prices in
  let priorities =
    List.mapi
      (fun idx (broker, _) ->
        (broker, { Spec.deal = Printf.sprintf "cb%d" (idx + 1); side = Spec.Right }))
      legs
  in
  Spec.make_exn ~priorities (List.concat_map snd legs)

(* Draws: consumer, then per document its agent before its producer —
   the order the Zipf request streams were first generated in. *)
let bundle_of cast k =
  if k <= 0 then invalid_arg "Gen.bundle: needs at least one document";
  let consumer = cast.consumer () in
  let deal idx =
    let i = idx + 1 in
    let via = cast.agent i in
    let seller = cast.producer i in
    Spec.sale
      ~id:(Printf.sprintf "cp%d" i)
      ~buyer:consumer ~seller ~via
      ~price:(Asset.dollars (10 * i))
      ~good:(Printf.sprintf "d%d" i)
  in
  Spec.make_exn (List.init k deal)

let chain ~brokers = chain_of fixed_cast ~direct:false brokers
let chain_direct ~brokers = chain_of fixed_cast ~direct:true brokers
let fan_consumer = fixed_cast.consumer ()
let fan ~prices = fan_of fixed_cast prices
let bundle ~docs = bundle_of fixed_cast docs

type mix = {
  sale_weight : int;
  chain_weight : int;
  max_chain : int;
  fan_weight : int;
  max_fan : int;
  bundle_weight : int;
  max_bundle : int;
  trust_density : float;
}

let default_mix =
  {
    sale_weight = 4;
    chain_weight = 3;
    max_chain = 3;
    fan_weight = 2;
    max_fan = 4;
    bundle_weight = 1;
    max_bundle = 3;
    trust_density = 0.2;
  }

(* With probability [density] a deal's seller trusts its buyer, so the
   buyer plays the intermediary (§4.2.3 variant 1 — the direction that
   unblocks broker resales; the reverse direction provably does not). *)
let sprinkle_trust rng density spec =
  List.fold_left
    (fun spec d ->
      if Prng.float rng < density then
        Spec.with_persona ~trusted:d.Spec.via ~principal:d.Spec.left spec
      else spec)
    spec spec.Spec.deals

let transaction_with cast rng mix =
  let total = mix.sale_weight + mix.chain_weight + mix.fan_weight + mix.bundle_weight in
  if total <= 0 then invalid_arg "Gen: all mix weights zero";
  let roll = Prng.int rng total in
  let base =
    if roll < mix.sale_weight then chain_of cast ~direct:false 0
    else if roll < mix.sale_weight + mix.chain_weight then
      chain_of cast ~direct:false (1 + Prng.int rng (max 1 mix.max_chain))
    else if roll < mix.sale_weight + mix.chain_weight + mix.fan_weight then
      let k = 1 + Prng.int rng (max 1 mix.max_fan) in
      fan_of cast (List.init k (fun i -> Asset.dollars (10 * (i + 1))))
    else bundle_of cast (1 + Prng.int rng (max 1 mix.max_bundle))
  in
  sprinkle_trust rng mix.trust_density base

let random_transaction rng mix = transaction_with fixed_cast rng mix
let random_transactions rng mix n = List.init n (fun _ -> random_transaction rng mix)
