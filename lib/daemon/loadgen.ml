module Universe = Workload.Universe
module Prng = Workload.Prng
module Printer = Trust_lang.Printer
module Json = Trust_obs.Json

type config = {
  connect : string;
  requests : int;
  universe : Universe.config;
  seed : int64;
  busy_retries : int;
}

let default =
  {
    connect = "unix:/tmp/trustseq.sock";
    requests = 1000;
    universe = Universe.default_config;
    seed = 1L;
    busy_retries = 25;
  }

type report = {
  sent : int;
  settled : int;
  expired : int;
  aborted : int;
  busy : int;
  dropped : int;
  refused : int;
  cache_hits : int;
  wall : float;
  throughput : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let run cfg =
  if cfg.requests <= 0 then invalid_arg "Loadgen.run: requests must be positive";
  let universe = Universe.create cfg.universe in
  let rng = Prng.create cfg.seed in
  match Client.connect cfg.connect with
  | Error _ as e -> e
  | Ok client ->
    let latencies = ref [] in
    let sent = ref 0
    and settled = ref 0
    and expired = ref 0
    and aborted = ref 0
    and busy = ref 0
    and dropped = ref 0
    and refused = ref 0
    and cache_hits = ref 0 in
    let error = ref None in
    let started = Unix.gettimeofday () in
    (try
       for i = 1 to cfg.requests do
         if !error = None then begin
           let spec = Universe.sample universe rng in
           let src = Printer.to_string spec in
           let rec attempt retries =
             let t0 = Unix.gettimeofday () in
             match Client.submit client ~id:i ~spec:src with
             | Error e -> error := Some e
             | Ok (Wire.Busy _) ->
               incr busy;
               if retries > 0 then begin
                 (* brief, bounded backoff: the daemon said "not now" *)
                 (try ignore (Unix.select [] [] [] 0.002) with Unix.Unix_error _ -> ());
                 attempt (retries - 1)
               end
               else incr dropped
             | Ok (Wire.Result { status; cache_hit; _ }) ->
               latencies := (Unix.gettimeofday () -. t0) *. 1000. :: !latencies;
               incr sent;
               if cache_hit then incr cache_hits;
               (match status with
               | "settled" -> incr settled
               | "expired" -> incr expired
               | _ -> incr aborted)
             | Ok (Wire.Refused { reason; _ })
               when String.length reason >= 7 && String.sub reason 0 7 = "denied:" ->
               (* the trace-mining deny list refusing a shape is an
                  expected per-request outcome under --mine-deny, not a
                  transport failure: count it and keep driving *)
               incr refused
             | Ok (Wire.Refused { reason; _ }) -> error := Some ("refused: " ^ reason)
             | Ok _ -> error := Some "unexpected response to submit"
           in
           attempt cfg.busy_retries
         end
       done
     with e ->
       Client.close client;
       raise e);
    Client.close client;
    (match !error with
    | Some e -> Error e
    | None ->
      let wall = Unix.gettimeofday () -. started in
      let sorted = Array.of_list !latencies in
      Array.sort compare sorted;
      Ok
        {
          sent = !sent;
          settled = !settled;
          expired = !expired;
          aborted = !aborted;
          busy = !busy;
          dropped = !dropped;
          refused = !refused;
          cache_hits = !cache_hits;
          wall;
          throughput = (if wall > 0. then float_of_int !sent /. wall else 0.);
          p50_ms = percentile sorted 0.50;
          p90_ms = percentile sorted 0.90;
          p99_ms = percentile sorted 0.99;
          max_ms = (if Array.length sorted = 0 then 0. else sorted.(Array.length sorted - 1));
        })

let json r =
  let int = Json.int and ms = Json.fixed 3 in
  let latency =
    [ ("p50", ms r.p50_ms); ("p90", ms r.p90_ms); ("p99", ms r.p99_ms); ("max", ms r.max_ms) ]
  in
  Json.to_string
    (Json.Obj
       [ ("sent", int r.sent); ("settled", int r.settled); ("expired", int r.expired);
         ("aborted", int r.aborted); ("busy", int r.busy); ("dropped", int r.dropped);
         ("refused", int r.refused); ("cache_hits", int r.cache_hits); ("wall_s", ms r.wall);
         ("throughput_rps", Json.fixed 1 r.throughput); ("latency_ms", Json.Obj latency) ])

let table r =
  String.concat "\n"
    [
      Printf.sprintf "results        %d (settled %d, expired %d, aborted %d)" r.sent
        r.settled r.expired r.aborted;
      Printf.sprintf "backpressure   %d busy answers, %d dropped, %d refused" r.busy
        r.dropped r.refused;
      Printf.sprintf "cache hits     %d" r.cache_hits;
      Printf.sprintf "wall           %.3f s (%.1f results/s)" r.wall r.throughput;
      Printf.sprintf "latency (ms)   p50 %.3f  p90 %.3f  p99 %.3f  max %.3f" r.p50_ms
        r.p90_ms r.p99_ms r.max_ms;
      "";
    ]
