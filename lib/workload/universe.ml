open Exchange

type config = {
  principals : int;
  broker_share : float;
  producer_share : float;
  agent_share : float;
  s_consumers : float;
  s_producers : float;
  s_brokers : float;
  template_share : float;
  templates : int;
  s_templates : float;
  mix : Gen.mix;
}

let default_config =
  {
    principals = 1_000_000;
    broker_share = 0.001;
    producer_share = 0.05;
    agent_share = 0.0002;
    s_consumers = 0.9;
    s_producers = 1.0;
    s_brokers = 1.2;
    template_share = 0.3;
    templates = 512;
    s_templates = 1.1;
    mix = Gen.default_mix;
  }

(* The regime the trace-mining feedback loop wants to observe: a small,
   hot catalog (most traffic is a repeated shape, so per-shape incident
   counts accumulate fast) over deep chains and wide fans (long
   multi-party runs, the sessions that retry, expire and trip the §5
   bound when deliveries drop or principals defect). *)
let defect_heavy =
  {
    default_config with
    template_share = 0.6;
    templates = 64;
    s_templates = 1.3;
    mix =
      {
        Gen.default_mix with
        Gen.sale_weight = 1;
        chain_weight = 4;
        max_chain = 4;
        fan_weight = 4;
        max_fan = 5;
        bundle_weight = 1;
      };
  }

type t = {
  cfg : config;
  consumers : Zipf.t;
  producers : Zipf.t;
  brokers : Zipf.t;
  agents : Zipf.t;
  catalog : Zipf.t option;
}

(* The widest cast any one transaction of the mix can demand from a
   single role: a fan of k documents uses 2k trusted agents, a chain of
   n brokers uses n distinct brokers and n+1 agents. *)
let cast_bound (mix : Gen.mix) =
  let widest =
    max (max mix.Gen.max_chain mix.Gen.max_bundle) mix.Gen.max_fan
  in
  (2 * max 1 widest) + 2

let create cfg =
  if cfg.broker_share < 0. || cfg.producer_share < 0. || cfg.agent_share < 0. then
    invalid_arg "Universe.create: negative role share";
  if cfg.template_share < 0. || cfg.template_share > 1. then
    invalid_arg "Universe.create: template_share must be in [0, 1]";
  let need = cast_bound cfg.mix in
  let part share =
    max need (int_of_float (float_of_int cfg.principals *. share))
  in
  let brokers = part cfg.broker_share in
  let producers = part cfg.producer_share in
  let agents = part cfg.agent_share in
  let consumers = cfg.principals - brokers - producers - agents in
  if consumers < need then
    invalid_arg
      (Printf.sprintf
         "Universe.create: %d principals leave no consumer long tail (need >= %d after \
          role floors)"
         cfg.principals (brokers + producers + agents + need));
  {
    cfg;
    consumers = Zipf.create ~n:consumers ~s:cfg.s_consumers;
    producers = Zipf.create ~n:producers ~s:cfg.s_producers;
    brokers = Zipf.create ~n:brokers ~s:cfg.s_brokers;
    agents = Zipf.create ~n:agents ~s:cfg.s_brokers;
    catalog =
      (if cfg.templates > 0 && cfg.template_share > 0. then
         Some (Zipf.create ~n:cfg.templates ~s:cfg.s_templates)
       else None);
  }

let consumers t = Zipf.size t.consumers
let producers t = Zipf.size t.producers
let brokers t = Zipf.size t.brokers
let agents t = Zipf.size t.agents

let distinct zipf rng used =
  let n = Zipf.size zipf in
  let rec probe r steps =
    if steps >= n then invalid_arg "Universe: role subpopulation exhausted"
    else if List.mem r !used then probe ((r + 1) mod n) (steps + 1)
    else begin
      used := r :: !used;
      r
    end
  in
  probe (Zipf.sample zipf rng) 0

(* A fresh cast per transaction: each role remembers the ranks it has
   used, so a cast never reuses a principal within its role. Lists stay
   tiny (a dozen entries at most), so linear membership is fine. The
   shapes are Gen's; only the names are drawn instead of fixed. *)
let cast t rng =
  let drawn zipf name =
    let used = ref [] in
    fun (_ : int) -> name (distinct zipf rng used)
  in
  let consumer = drawn t.consumers (fun r -> Party.consumer (Printf.sprintf "c%d" r)) in
  let producer = drawn t.producers (fun r -> Party.producer (Printf.sprintf "p%d" r)) in
  {
    Gen.consumer = (fun () -> consumer 0);
    producer;
    source = producer;
    broker = drawn t.brokers (fun r -> Party.broker (Printf.sprintf "b%d" r));
    agent = drawn t.agents (fun r -> Party.trusted (Printf.sprintf "t%d" r));
  }

let transaction t rng = Gen.transaction_with (cast t rng) rng t.cfg.mix

(* Catalog templates: template i always re-derives the same cast, so
   the spec — and its cached protocol — repeats byte-identically. *)
let template_seed rank =
  Int64.add 0x9E3779B97F4A7C15L (Int64.mul (Int64.of_int (rank + 1)) 0x2545F4914F6CDD1DL)

let sample t rng =
  match t.catalog with
  | Some catalog when Prng.float rng < t.cfg.template_share ->
    let rank = Zipf.sample catalog rng in
    transaction t (Prng.create (template_seed rank))
  | Some _ | None -> transaction t rng
