module Cache = Trust_serve.Cache
module Metrics = Trust_serve.Metrics
module Scheduler = Trust_serve.Scheduler
module Session = Trust_serve.Session
module Obs = Trust_obs.Obs
module Json = Trust_obs.Json
module Ring = Trust_obs.Ring
module Mine = Trust_obs.Mine
module B64 = Trust_obs.B64
module Shape = Trust_serve.Shape

type config = {
  unix_path : string option;
  tcp : (string * int) option;
  policy : Cache.policy;
  cache_capacity : int;
  scheduler : Scheduler.config;
  max_pending : int;
  epoch_every : int;
  max_idle_epochs : int;
  snapshot_path : string option;
  trace_path : string option;
  trace_ring : int;
  trace_sample : float;
  mine_every : int;
  mine_pin : int;
  mine_deny : int;
  defect_every : int;
  banner : string;
}

let default =
  {
    unix_path = None;
    tcp = None;
    policy = Cache.default_policy;
    cache_capacity = 4096;
    scheduler = Scheduler.default_config;
    max_pending = 64;
    epoch_every = 256;
    max_idle_epochs = 2;
    snapshot_path = None;
    trace_path = None;
    (* tracing is on by default precisely because it is priced for
       production: a 1 MiB ring and 1% head sampling, with tail keeps
       promoting every anomalous session regardless of the rate *)
    trace_ring = 1 lsl 20;
    trace_sample = 0.01;
    (* the feedback loop is opt-in: mining costs a ring drain + refold
       every [mine_every] requests, and pins/denies change admission
       behavior — operators turn the knob deliberately *)
    mine_every = 0;
    mine_pin = 2;
    mine_deny = 1;
    defect_every = 0;
    banner = "trustseq";
  }

type stats = {
  served : int;
  settled : int;
  expired : int;
  aborted : int;
  busy : int;
  protocol_errors : int;
  connections : int;
  epochs : int;
  aged_out : int;
  cache_size : int;
  drained : bool;
}

let stats_json s =
  let int = Json.int in
  Json.Obj
    [ ("served", int s.served); ("settled", int s.settled); ("expired", int s.expired);
      ("aborted", int s.aborted); ("busy", int s.busy); ("protocol_errors", int s.protocol_errors);
      ("connections", int s.connections); ("epochs", int s.epochs); ("aged_out", int s.aged_out);
      ("cache_size", int s.cache_size); ("drained", Json.Bool s.drained) ]

(* -- connections -- *)

type conn = {
  fd : Unix.file_descr;
  decoder : Frame.decoder;
  mutable greeted : bool;
  out : Buffer.t;  (** encoded frames awaiting the socket *)
  mutable out_off : int;  (** bytes of [out] already written *)
  mutable closing : bool;  (** close once [out] is flushed *)
  mutable alive : bool;
}

type srv = {
  cfg : config;
  metrics : Metrics.t;
  cache : Cache.t;
  pending : (conn * int * string) Admission.t;
  trace_ch : out_channel option;
  ring : Ring.t option;
  (* the trace-mining feedback loop: a scoreboard accumulated across
     self-drains, and a bounded last-seen spec per shape so pin
     candidates that already aged out can be pre-warmed *)
  mutable board : Mine.t;
  stash : (string, Exchange.Spec.t) Hashtbl.t;
  (* the batch scheduler's retention rule, bound once at start-up *)
  retain : int -> (record:bool -> Obs.t -> Session.t option) -> Obs.t option;
  mutable next_session : int;
  (* aborted submissions that never became a session (no counter
     holds them: the scheduler counts only the sessions it runs) *)
  mutable parse_rejected : int;
  (* registered once, bumped per event *)
  requests_c : Metrics.counter;
  busy_c : Metrics.counter;
  proto_c : Metrics.counter;
  conns_c : Metrics.counter;
  epochs_c : Metrics.counter;
  aged_c : Metrics.counter;
  mine_ticks_c : Metrics.counter;
  mine_sessions_c : Metrics.counter;
  mine_pins_c : Metrics.counter;
  mine_prewarms_c : Metrics.counter;
  mine_denies_c : Metrics.counter;
}

let send conn resp = Buffer.add_string conn.out (Frame.encode (Wire.encode_response resp))

let try_flush conn =
  if conn.alive then begin
    let len = Buffer.length conn.out in
    if len > conn.out_off then begin
      let chunk = Buffer.to_bytes conn.out in
      try
        let n = Unix.write conn.fd chunk conn.out_off (len - conn.out_off) in
        conn.out_off <- conn.out_off + n
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | Unix.Unix_error _ -> conn.alive <- false
    end;
    if conn.alive && Buffer.length conn.out = conn.out_off then begin
      Buffer.clear conn.out;
      conn.out_off <- 0;
      if conn.closing then conn.alive <- false
    end
  end

let has_output conn = conn.alive && Buffer.length conn.out > conn.out_off

let protocol_error srv conn reason =
  Metrics.incr srv.proto_c;
  send conn (Wire.Refused { id = None; reason });
  conn.closing <- true

(* -- snapshots and aging -- *)

let write_snapshot srv =
  Option.iter
    (fun path ->
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_text tmp (fun ch ->
          output_string ch (Metrics.to_text srv.metrics));
      Sys.rename tmp path)
    srv.cfg.snapshot_path

let refresh_cache_gauges srv =
  Metrics.gauge srv.metrics ~help:"current protocol-cache epoch" "serve_cache_epoch"
    (float_of_int (Cache.epoch srv.cache));
  Metrics.gauge srv.metrics ~help:"resident protocol-cache entries" "serve_cache_size"
    (float_of_int (Cache.size srv.cache));
  Metrics.gauge srv.metrics ~help:"cache entries pinned by the trace-mining policy"
    "serve_cache_pinned"
    (float_of_int (Cache.pinned_count srv.cache));
  (* deterministic here, unlike the batch scheduler's volatile variant:
     the select loop commits sessions in wire order on one thread *)
  Option.iter
    (fun ring ->
      Metrics.gauge srv.metrics ~help:"trace-ring live bytes" "obs_ring_bytes"
        (float_of_int (Ring.bytes_resident ring)))
    srv.ring

let epoch_tick srv =
  let swept = Cache.advance_epoch ~max_idle:srv.cfg.max_idle_epochs srv.cache in
  Metrics.incr srv.epochs_c;
  if swept > 0 then Metrics.incr ~by:swept srv.aged_c;
  refresh_cache_gauges srv;
  write_snapshot srv

(* The feedback tick: self-drain the ring (the same consuming window
   the [trace] wire request reads), fold the kept sessions into the
   running scoreboard, then apply the policy — pin or pre-warm shapes
   that repeatedly retried/expired, deny shapes whose tails showed §5
   exposure violations. Deterministic: the scoreboard is a pure fold
   and the thresholds come from config, so the same request stream
   always produces the same pins and denies. *)
let mine_tick srv =
  match srv.ring with
  | None -> ()
  | Some ring ->
    Metrics.incr srv.mine_ticks_c;
    (match Ring.decode (Ring.drain ring) with
    | Error _ -> ()  (* a corrupt self-dump would be a Ring bug; never kill the daemon over it *)
    | Ok (sessions, _) ->
      if sessions <> [] then begin
        Metrics.incr ~by:(List.length sessions) srv.mine_sessions_c;
        srv.board <-
          List.fold_left
            (fun board (s : Ring.session) -> Mine.add_views board s.Ring.s_views)
            srv.board sessions
      end);
    if srv.cfg.mine_deny > 0 then begin
      let already = Cache.denied srv.cache in
      List.iter
        (fun hex ->
          if not (List.mem hex already) then begin
            Cache.deny srv.cache hex;
            Metrics.incr srv.mine_denies_c
          end)
        (Mine.deny_candidates ~min_violations:srv.cfg.mine_deny srv.board)
    end;
    if srv.cfg.mine_pin > 0 then begin
      let denied = Cache.denied srv.cache in
      List.iter
        (fun hex ->
          if not (List.mem hex denied) then
            if Cache.pin srv.cache hex then Metrics.incr srv.mine_pins_c
            else
              (* hot but not resident (aged out or evicted): pre-warm
                 from the last spec seen with this shape, if any *)
              match Hashtbl.find_opt srv.stash hex with
              | None -> ()
              | Some spec -> (
                match Cache.prewarm srv.cache spec with
                | `Warmed -> Metrics.incr srv.mine_prewarms_c
                | `Hit | `Failed _ | `Uncacheable -> ()))
        (Mine.pin_candidates ~min_incidents:srv.cfg.mine_pin srv.board)
    end;
    refresh_cache_gauges srv

(* -- request processing -- *)

let zero_result ~id ~status ~exit_code ~reason =
  Wire.Result
    {
      id;
      status;
      exit_code;
      cache_hit = false;
      ticks = 0;
      events = 0;
      attempts = 0;
      exposure_peak = 0;
      exposure_ticks = 0;
      exposure_violations = 0;
      reason;
    }

(* One pass over a submission: the [daemon.request] root span,
   elaboration, and the full session lifecycle. {!Scheduler.retain}
   runs it against a live sink when the request is head-sampled, and
   again (with [record] false: the first pass already counted
   everything) when a tail keep rule promotes it — so both produce the
   same span tree. *)
let request_pass srv ~record ~session:n ~id ~spec obs =
  Obs.with_span obs ~phase:"daemon" "daemon.request" (fun root ->
      if Obs.enabled obs then Obs.attr obs root "wire_id" (Obs.Int id);
      match Trust_lang.Elaborate.from_string ~obs ~parent:root ~file:"<wire>" spec with
      | Error e ->
        if record then srv.parse_rejected <- srv.parse_rejected + 1;
        (zero_result ~id ~status:"error" ~exit_code:2 ~reason:(Some e), None)
      | Ok parsed ->
        (* optional fault injection (CI smokes, soak tests): the batch
           Service's rule, keyed on the session id, so the tail replay
           re-derives the identical cast. *)
        let defectors =
          Trust_sim.Harness.injected_defectors ~every:srv.cfg.defect_every ~index:n parsed
        in
        let session = Session.make ~id:n ~defectors parsed in
        let metrics = if record then Some srv.metrics else None in
        Scheduler.process_one ?metrics ~obs ~parent:root srv.cfg.scheduler srv.cache session;
        let status, exit_code, reason =
          match session.Session.status with
          | Session.Settled -> ("settled", 0, None)
          | Session.Expired -> ("expired", 1, None)
          | Session.Aborted r -> ("aborted", 1, Some r)
          | Session.Queued | Session.Synthesizing | Session.Running ->
            ("error", 2, Some "internal: session did not reach a terminal state")
        in
        ( Wire.Result
            {
              id;
              status;
              exit_code;
              cache_hit = session.Session.cache_hit;
              ticks = session.Session.ticks;
              events = session.Session.events;
              attempts = session.Session.attempts;
              exposure_peak = session.Session.exposure_peak;
              exposure_ticks = session.Session.exposure_ticks;
              exposure_violations = session.Session.exposure_violations;
              reason;
            },
          Some session ))

let process_submit srv conn ~id ~spec =
  let n = srv.next_session in
  srv.next_session <- n + 1;
  let first = ref None in
  let kept =
    srv.retain n (fun ~record obs ->
        let resp, session = request_pass srv ~record ~session:n ~id ~spec obs in
        if record then first := Some (resp, session);
        session)
  in
  let resp, session = Option.get !first in
  (* remember the last spec per shape (bounded) so the mining tick can
     pre-warm a pin candidate that already aged out of the cache *)
  (match session with
  | Some session when srv.cfg.mine_every > 0 ->
    if Hashtbl.length srv.stash >= 4096 then Hashtbl.reset srv.stash;
    Hashtbl.replace srv.stash (Shape.hash_hex session.Session.spec) session.Session.spec
  | Some _ | None -> ());
  (* every kept session — head-sampled or tail-promoted — reaches the
     durable sink at close; the ring is the live (evictable)
     introspection window over the same set *)
  (match (kept, srv.trace_ch) with
  | Some trace, Some ch ->
    output_string ch (Obs.export Obs.Jsonl [ trace ]);
    flush ch
  | _ -> ());
  (* a deny-listed shape surfaces as the wire's refused answer — the
     client sees the TM001 diagnostic with the transport exit contract,
     distinct from an ordinary aborted result *)
  let resp =
    match resp with
    | Wire.Result { id; reason = Some r; _ }
      when String.length r >= 7 && String.sub r 0 7 = "denied:" ->
      Wire.Refused { id = Some id; reason = r }
    | resp -> resp
  in
  send conn resp;
  Metrics.incr srv.requests_c;
  let served = Metrics.value srv.requests_c in
  if srv.cfg.epoch_every > 0 && served mod srv.cfg.epoch_every = 0 then epoch_tick srv;
  if srv.cfg.mine_every > 0 && served mod srv.cfg.mine_every = 0 then mine_tick srv

(* The stats are read off the registry. The scheduler registers its
   session counters on the first session it runs; until then they are
   zero, and fetching them would add empty series to the metrics
   reply. *)
let snapshot ?(drained = false) srv =
  let served = Metrics.value srv.requests_c in
  let sessions name =
    if served > srv.parse_rejected then Metrics.value (Metrics.counter srv.metrics name) else 0
  in
  {
    served;
    settled = sessions "serve_sessions_settled_total";
    expired = sessions "serve_sessions_expired_total";
    aborted = srv.parse_rejected + sessions "serve_sessions_aborted_total";
    busy = Metrics.value srv.busy_c;
    protocol_errors = Metrics.value srv.proto_c;
    connections = Metrics.value srv.conns_c;
    epochs = Metrics.value srv.epochs_c;
    aged_out = Cache.aged_out srv.cache;
    cache_size = Cache.size srv.cache;
    drained;
  }

let handle_request srv conn = function
  | Wire.Hello { version } ->
    if conn.greeted then protocol_error srv conn "duplicate hello"
    else if version <> Wire.version then
      protocol_error srv conn
        (Printf.sprintf "unsupported protocol version %d (server speaks %d)" version
           Wire.version)
    else begin
      conn.greeted <- true;
      send conn (Wire.Welcome { version = Wire.version; server = srv.cfg.banner })
    end
  | _ when not conn.greeted -> protocol_error srv conn "expected hello before any request"
  | Wire.Ping { id } -> send conn (Wire.Pong { id })
  | Wire.Metrics { id } ->
    send conn (Wire.Text { id; kind = "metrics"; text = Metrics.to_text srv.metrics })
  | Wire.Stats { id } ->
    send conn (Wire.Text { id; kind = "stats"; text = Json.to_string (stats_json (snapshot srv)) })
  | Wire.Trace { id } ->
    (* drain semantics: each trace request returns the records kept
       since the previous one, base64ed over the ordinary text frame;
       with the ring disabled the reply is a valid zero-shard dump *)
    let dump = match srv.ring with Some ring -> Ring.drain ring | None -> Ring.empty_dump in
    refresh_cache_gauges srv;
    send conn (Wire.Text { id; kind = "ring"; text = B64.encode dump })
  | Wire.Submit { id; spec } ->
    if not (Admission.try_push srv.pending (conn, id, spec)) then begin
      Metrics.incr srv.busy_c;
      send conn (Wire.Busy { id })
    end

let handle_event srv conn = function
  | Frame.Oversized announced ->
    protocol_error srv conn
      (Printf.sprintf "oversized frame: %d bytes announced (max %d)" announced
         Frame.default_max)
  | Frame.Frame payload -> (
    match Wire.decode_request payload with
    | Error e -> protocol_error srv conn e
    | Ok req -> handle_request srv conn req)

let handle_readable srv conn buf =
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> conn.alive <- false
  | 0 -> conn.alive <- false
  | n -> List.iter (handle_event srv conn) (Frame.feed conn.decoder buf n)

let rec drain_pending srv =
  match Admission.pop srv.pending with
  | None -> ()
  | Some (conn, id, spec) ->
    (* a client that hung up forfeits its queued work; everyone else
       gets a full run and a response *)
    if conn.alive then process_submit srv conn ~id ~spec;
    drain_pending srv

(* -- listeners -- *)

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

let listen_tcp (host, port) =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> raise Not_found
      | h -> h.Unix.h_addr_list.(0))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

let accept_all srv listener conns =
  let rec go () =
    match Unix.accept listener with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      Unix.set_nonblock fd;
      Metrics.incr srv.conns_c;
      conns :=
        {
          fd;
          decoder = Frame.create ();
          greeted = false;
          out = Buffer.create 256;
          out_off = 0;
          closing = false;
          alive = true;
        }
        :: !conns;
      go ()
  in
  go ()

(* -- the loop -- *)

let run ?(stop = Atomic.make false) ?metrics cfg =
  if cfg.unix_path = None && cfg.tcp = None then
    invalid_arg "Server.run: no listener configured";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let trace_ch = Option.map open_out cfg.trace_path in
  let ring =
    if cfg.trace_ring > 0 then Some (Ring.create ~capacity:cfg.trace_ring ()) else None
  in
  let srv =
    {
      cfg;
      metrics;
      cache = Cache.create ~capacity:cfg.cache_capacity cfg.policy;
      pending = Admission.create ~bound:cfg.max_pending ();
      trace_ch;
      ring;
      board = Mine.empty;
      stash = Hashtbl.create 256;
      retain =
        Scheduler.retain ~metrics ?ring
          ~tracing:(trace_ch <> None || ring <> None)
          { cfg.scheduler with Scheduler.sample_rate = cfg.trace_sample };
      next_session = 0;
      parse_rejected = 0;
      requests_c =
        Metrics.counter metrics ~help:"wire submissions processed" "daemon_requests_total";
      busy_c =
        Metrics.counter metrics ~help:"submissions bounced by admission control"
          "daemon_busy_total";
      proto_c =
        Metrics.counter metrics ~help:"handshake, framing and decode failures"
          "daemon_protocol_errors_total";
      conns_c = Metrics.counter metrics ~help:"connections accepted" "daemon_connections_total";
      epochs_c = Metrics.counter metrics ~help:"cache epoch ticks" "daemon_epochs_total";
      aged_c =
        Metrics.counter metrics ~help:"cache entries swept by epoch aging"
          "serve_cache_aged_out_total";
      mine_ticks_c =
        Metrics.counter metrics ~help:"trace-mining feedback ticks (self-drain + policy)"
          "obs_mine_ticks_total";
      mine_sessions_c =
        Metrics.counter metrics ~help:"kept sessions folded into the mining scoreboard"
          "obs_mine_sessions_total";
      mine_pins_c =
        Metrics.counter metrics ~help:"resident cache entries pinned by the mining policy"
          "obs_mine_pins_total";
      mine_prewarms_c =
        Metrics.counter metrics ~help:"evicted hot shapes pre-warmed (synthesized and pinned)"
          "obs_mine_prewarms_total";
      mine_denies_c =
        Metrics.counter metrics ~help:"shapes deny-listed at admission by the mining policy"
          "obs_mine_denies_total";
    }
  in
  refresh_cache_gauges srv;
  let listeners =
    (match cfg.unix_path with None -> [] | Some p -> [ listen_unix p ])
    @ (match cfg.tcp with None -> [] | Some hp -> [ listen_tcp hp ])
  in
  let conns = ref [] in
  let buf = Bytes.create 65536 in
  let sweep_dead () =
    conns :=
      List.filter
        (fun c ->
          if c.alive then true
          else begin
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            false
          end)
        !conns
  in
  while not (Atomic.get stop) do
    sweep_dead ();
    let rd = listeners @ List.map (fun c -> c.fd) !conns in
    let wr = List.filter_map (fun c -> if has_output c then Some c.fd else None) !conns in
    (match Unix.select rd wr [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      List.iter
        (fun fd ->
          if List.memq fd listeners then accept_all srv fd conns
          else
            match List.find_opt (fun c -> c.fd == fd) !conns with
            | Some conn when conn.alive -> handle_readable srv conn buf
            | Some _ | None -> ())
        readable;
      drain_pending srv;
      List.iter
        (fun fd ->
          match List.find_opt (fun c -> c.fd == fd) !conns with
          | Some conn -> try_flush conn
          | None -> ())
        writable;
      (* opportunistic flush for responses generated this round *)
      List.iter (fun c -> if has_output c then try_flush c) !conns)
  done;
  (* -- graceful drain: stop accepting, finish admitted work, flush -- *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ()) cfg.unix_path;
  drain_pending srv;
  let deadline = Unix.gettimeofday () +. 5. in
  let rec flush_all () =
    sweep_dead ();
    let waiting = List.filter has_output !conns in
    if waiting <> [] && Unix.gettimeofday () < deadline then begin
      (match Unix.select [] (List.map (fun c -> c.fd) waiting) [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _, writable, _ ->
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.fd == fd) !conns with
            | Some conn -> try_flush conn
            | None -> ())
          writable);
      flush_all ()
    end
  in
  flush_all ();
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  refresh_cache_gauges srv;
  write_snapshot srv;
  Option.iter close_out srv.trace_ch;
  snapshot ~drained:true srv
