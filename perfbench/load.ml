(* The daemon under test and the load that drives it.

   The server is a [trustseq serve] child process, never a domain of
   this process: OCaml 5 minor collections stop every domain, so the
   generator's allocation would stall the server and inflate its tail.
   Load comes from this one process over at most two connections, in
   the public Frame/Wire protocol. *)

module Frame = Trust_daemon.Frame
module Wire = Trust_daemon.Wire

(* -- the child process -- *)

type child = { pid : int; socket : string; log : string }

let rec connect_retry socket ~until =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
    when Stats.now_ns () < until ->
    Unix.close fd;
    Unix.sleepf 0.005;
    connect_retry socket ~until
  | exception e ->
    Unix.close fd;
    raise e

(* OCAMLRUNPARAM v=0x400 makes the child print its GC totals at exit. *)
let child_env () =
  let env = Array.to_list (Unix.environment ()) in
  let prefix = "OCAMLRUNPARAM=" in
  let is_param s = String.length s >= 14 && String.sub s 0 14 = prefix in
  let param =
    match List.find_opt is_param env with
    | Some s -> s ^ ",v=0x400"
    | None -> prefix ^ "v=0x400"
  in
  Array.of_list (param :: List.filter (fun s -> not (is_param s)) env)

(* [taskset -c cpu cmd]: [cmd] pinned to one core, or [cmd] itself
   when [cpu] is [None]. *)
let pinned cpu cmd =
  match cpu with None -> cmd | Some c -> "taskset" :: "-c" :: string_of_int c :: cmd

let spawn ?cpu ~exe ~socket ~log args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (pinned cpu (exe :: "serve" :: "--socket" :: socket :: args)) in
  let pid = Unix.create_process_env argv.(0) argv (child_env ()) stdin_r out out in
  Unix.close out;
  Unix.close stdin_r;
  Unix.close stdin_w;
  { pid; socket; log }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A host probe sample (Stats.probe) taken on one core, by this program
   run again with [--probe] under taskset; [None] when that fails, as
   where taskset is missing. *)
let probe_on cpu =
  let argv = Array.of_list (pinned (Some cpu) [ Sys.executable_name; "--probe" ]) in
  let ic = Unix.open_process_args_in argv.(0) argv in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> float_of_string_opt l
  | _ -> None

(* VmHWM of the child, in MiB. *)
let peak_rss_mb child =
  let status = read_file (Printf.sprintf "/proc/%d/status" child.pid) in
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] ->
        Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> None)
    (String.split_on_char '\n' status)
  |> Option.value ~default:0.

type drain = {
  exit_ok : bool;
  socket_removed : bool;
  drained : bool;
  gc : (string * float) list;  (* the child's GC totals at exit *)
}

let rec wait_exit pid ~until =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Stats.now_ns () < until ->
    Unix.sleepf 0.01;
    wait_exit pid ~until
  | 0, _ ->
    Unix.kill pid Sys.sigkill;
    snd (Unix.waitpid [] pid)
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~until

let deadline_in seconds = Int64.add (Stats.now_ns ()) (Int64.of_float (seconds *. 1e9))

(* SIGTERM, then wait for the graceful drain. *)
let stop child =
  (try Unix.kill child.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = wait_exit child.pid ~until:(deadline_in 20.) in
  let log = try read_file child.log with Sys_error _ -> "" in
  let lines = String.split_on_char '\n' log in
  let gc =
    List.filter_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ k; v ] -> Option.map (fun f -> (k, f)) (float_of_string_opt (String.trim v))
        | _ -> None)
      lines
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  {
    exit_ok = status = Unix.WEXITED 0;
    socket_removed = not (Sys.file_exists child.socket);
    drained = List.exists (fun l -> contains l "drained" && contains l "\"drained\":true") lines;
    gc;
  }

(* -- one connection -- *)

type conn = { fd : Unix.file_descr; decoder : Frame.decoder; buf : Bytes.t }

exception Transport of string

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Read whatever is available (waiting at most [timeout] seconds) and
   decode every complete response. *)
let poll conn ~timeout =
  match Unix.select [ conn.fd ] [] [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | [], _, _ -> []
  | _ -> (
    match Unix.read conn.fd conn.buf 0 (Bytes.length conn.buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | 0 -> raise (Transport "server closed the connection")
    | n ->
      List.map
        (function
          | Frame.Frame p -> (
            match Wire.decode_response p with
            | Ok r -> r
            | Error e -> raise (Transport ("undecodable response: " ^ e)))
          | Frame.Oversized _ -> raise (Transport "oversized response frame"))
        (Frame.feed conn.decoder conn.buf n))

let rec await conn ~until =
  if Stats.now_ns () > until then raise (Transport "timed out waiting for the server");
  match poll conn ~timeout:0.5 with [] -> await conn ~until | rs -> rs

let connect socket =
  let fd = connect_retry socket ~until:(deadline_in 30.) in
  let conn = { fd; decoder = Frame.create (); buf = Bytes.create 65536 } in
  write_all fd (Frame.encode (Wire.encode_request (Wire.Hello { version = Wire.version })));
  match await conn ~until:(deadline_in 30.) with
  | [ Wire.Welcome _ ] -> conn
  | _ -> raise (Transport "no welcome from the server")

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* -- inputs -- *)

(* Submissions in generation order: DSL texts and their frames, made on
   demand by [next_text], so a closed loop never runs out however fast
   the server is. *)
type stream = {
  next_text : unit -> string;
  mutable texts : string array;
  mutable frames : string array;
  mutable length : int;
}

let stream next_text = { next_text; texts = [||]; frames = [||]; length = 0 }

(* Make sure the first [n] submissions exist. *)
let grow s n =
  while s.length < n do
    if s.length = Array.length s.texts then begin
      let cap = max 1024 (2 * s.length) in
      s.texts <- Array.append s.texts (Array.make (cap - s.length) "");
      s.frames <- Array.append s.frames (Array.make (cap - s.length) "")
    end;
    let text = s.next_text () in
    s.texts.(s.length) <- text;
    s.frames.(s.length) <- Frame.encode (Wire.encode_request (Wire.Submit { id = s.length; spec = text }));
    s.length <- s.length + 1
  done

let frame s i =
  grow s (i + 1);
  s.frames.(i)

let text s i = s.texts.(i)

(* -- the phases -- *)

(* One phase's record, filled over the rounds that run it. *)
type tally = {
  mutable answers : (int * int * Wire.response) list;
      (* (server order, request index, Result), newest first *)
  mutable latencies : (int * float) list;  (* (request index, ms), newest first *)
  mutable late : float list;  (* open loop only: send time minus due time, ms *)
  mutable sent : int;
  mutable busy_retries : int;
  mutable failed : int;  (* transport errors, refusals, busy past the retry budget *)
  mutable elapsed_s : float;
}

let tally () =
  { answers = []; latencies = []; late = []; sent = 0; busy_retries = 0; failed = 0; elapsed_s = 0. }

let answered t = List.length t.answers
let latencies_ms t = Array.of_list (List.map snd t.latencies)
let late_ms t = Array.of_list t.late

let max_busy_retries = 25

(* The server numbers sessions in the order it runs them, which on one
   connection at a time is the order its answers arrive: [order]
   counts answers over every phase of one server. *)
let record t order i ms r =
  t.answers <- (!order, i, r) :: t.answers;
  t.latencies <- (i, ms) :: t.latencies;
  incr order

(* Closed loop: the next request leaves when the previous one is
   answered, from request [from] until [seconds] have passed or
   request [stop] is reached. While the server works on a request, the
   next one is generated. [checkpoint] [(n, f)] calls [f] after each
   answer once the server has answered [n] requests. Returns the next
   request index. *)
let closed_loop ?checkpoint conn inputs t ~order ~from ~stop ~seconds =
  let start = Stats.now_ns () in
  let stop_at = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let i = ref from in
  while !i < stop && Stats.now_ns () < stop_at do
    let t0 = Stats.now_ns () in
    let rec attempt retries =
      write_all conn.fd (frame inputs !i);
      if !i + 1 < stop then grow inputs (!i + 2);
      let rec answer () =
        match await conn ~until:(deadline_in 60.) with
        | [ (Wire.Result _ as r) ] -> `Done r
        | [ Wire.Busy _ ] -> `Busy
        | [ _ ] -> `Failed
        | _ -> answer ()
      in
      match answer () with
      | `Done r -> record t order !i (Stats.elapsed_ns t0 /. 1e6) r
      | `Busy when retries > 0 ->
        t.busy_retries <- t.busy_retries + 1;
        Unix.sleepf 0.001;
        attempt (retries - 1)
      | `Busy | `Failed -> t.failed <- t.failed + 1
    in
    t.sent <- t.sent + 1;
    attempt max_busy_retries;
    Option.iter (fun (n, f) -> if !order >= n then f ()) checkpoint;
    incr i
  done;
  t.elapsed_s <- t.elapsed_s +. Stats.seconds_since start;
  !i

(* Open loop over requests [lo, hi): request [i] is due [due_s.(i) -.
   base] seconds after the start, whatever the server is doing; latency
   runs from the due time, so a stall is charged to every request
   queued behind it. Returns when every request is answered. *)
let open_loop conn inputs t ~order ~due_s ~lo ~hi ~base =
  grow inputs hi;
  let retries = Hashtbl.create 16 in
  let start = Stats.now_ns () in
  let due i = Int64.add start (Int64.of_float ((due_s.(i) -. base) *. 1e9)) in
  let next = ref lo and finished = ref 0 in
  let give_up = ref (deadline_in 60.) in
  while !finished < hi - lo do
    let now = Stats.now_ns () in
    if now > !give_up then raise (Transport "open loop stalled");
    if !next < hi && now >= due !next then begin
      t.late <- (Int64.to_float (Int64.sub now (due !next)) /. 1e6) :: t.late;
      write_all conn.fd (frame inputs !next);
      t.sent <- t.sent + 1;
      incr next
    end
    else begin
      let timeout =
        if !next < hi then Int64.to_float (Int64.sub (due !next) now) /. 1e9 else 0.5
      in
      List.iter
        (fun r ->
          give_up := deadline_in 60.;
          let arrived = Stats.now_ns () in
          match r with
          | Wire.Result { id; _ } when id >= lo && id < hi ->
            record t order id (Int64.to_float (Int64.sub arrived (due id)) /. 1e6) r;
            incr finished
          | Wire.Busy { id }
            when id >= lo && id < hi
                 && Option.value ~default:0 (Hashtbl.find_opt retries id) < max_busy_retries ->
            t.busy_retries <- t.busy_retries + 1;
            Hashtbl.replace retries id (1 + Option.value ~default:0 (Hashtbl.find_opt retries id));
            write_all conn.fd (frame inputs id)
          | _ ->
            t.failed <- t.failed + 1;
            incr finished)
        (poll conn ~timeout)
    end
  done;
  t.elapsed_s <- t.elapsed_s +. Stats.seconds_since start
