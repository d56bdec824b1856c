(* The daemon's wire contract, bolted down at three layers: the frame
   reassembler against arbitrary chunking, the request/response JSON
   vocabulary as a round trip, and a live server on a real Unix socket
   — handshake, submission, backpressure, garbage, and graceful
   drain. *)

module Frame = Trust_daemon.Frame
module Wire = Trust_daemon.Wire
module Admission = Trust_daemon.Admission
module Server = Trust_daemon.Server
module Client = Trust_daemon.Client
module Ring = Trust_obs.Ring
module Scheduler = Trust_serve.Scheduler

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* -- framing -- *)

let frames events =
  List.map (function Frame.Frame p -> p | Frame.Oversized n -> Printf.sprintf "<oversized %d>" n) events

let test_frame_roundtrip () =
  let d = Frame.create () in
  Alcotest.(check (list string))
    "one frame back" [ "hello" ]
    (frames (Frame.feed_string d (Frame.encode "hello")));
  check_int "nothing buffered" 0 (Frame.buffered d)

let test_frame_byte_at_a_time () =
  (* the pathological chunking: every byte arrives alone *)
  let d = Frame.create () in
  let payload = "{\"type\":\"ping\",\"id\":7}" in
  let bytes = Frame.encode payload in
  let got = ref [] in
  String.iter
    (fun c -> got := !got @ frames (Frame.feed_string d (String.make 1 c)))
    bytes;
  Alcotest.(check (list string)) "reassembled" [ payload ] !got;
  check_int "drained" 0 (Frame.buffered d)

let test_frame_batch_and_split () =
  (* three frames in one read, then a fourth split across the header *)
  let d = Frame.create () in
  let p1 = "a" and p2 = String.make 100 'b' and p3 = "" in
  let batch = Frame.encode p1 ^ Frame.encode p2 ^ Frame.encode p3 in
  Alcotest.(check (list string)) "batch order" [ p1; p2; p3 ] (frames (Frame.feed_string d batch));
  let p4 = "tail" in
  let enc = Frame.encode p4 in
  Alcotest.(check (list string)) "header half delivers nothing" []
    (frames (Frame.feed_string d (String.sub enc 0 2)));
  check_int "mid-frame while split" 2 (Frame.buffered d);
  Alcotest.(check (list string)) "rest completes it" [ p4 ]
    (frames (Frame.feed_string d (String.sub enc 2 (String.length enc - 2))))

let test_frame_oversized_poisons () =
  let d = Frame.create ~max_frame:64 () in
  let events = Frame.feed_string d (Frame.encode (String.make 65 'x')) in
  (match events with
  | [ Frame.Oversized 65 ] -> ()
  | _ -> Alcotest.fail "expected Oversized 65");
  check "poisoned" true (Frame.poisoned d);
  Alcotest.(check (list string)) "poisoned decoder yields nothing" []
    (frames (Frame.feed_string d (Frame.encode "ok")))

let test_frame_ascii_garbage_is_oversized () =
  (* line noise before the handshake: ASCII reads as a huge length *)
  let d = Frame.create () in
  match Frame.feed_string d "GET / HTTP/1.0\r\n\r\n" with
  | [ Frame.Oversized n ] ->
    check "ASCII decodes far beyond the bound" true (n > Frame.default_max);
    check "poisoned" true (Frame.poisoned d)
  | _ -> Alcotest.fail "expected a single Oversized event"

let test_frame_empty_and_bounds () =
  let d = Frame.create () in
  Alcotest.(check (list string)) "empty payload frames fine" [ "" ]
    (frames (Frame.feed_string d (Frame.encode "")));
  check "feeding nothing is a no-op" true (Frame.feed_string d "" = [])

(* -- wire vocabulary -- *)

let test_wire_request_roundtrip () =
  let cases =
    [
      Wire.Hello { version = Wire.version };
      Wire.Submit { id = 3; spec = "principal c : consumer\n\"quoted\\back\"" };
      Wire.Ping { id = 0 };
      Wire.Metrics { id = 12 };
      Wire.Stats { id = 99 };
    ]
  in
  List.iter
    (fun req ->
      match Wire.decode_request (Wire.encode_request req) with
      | Ok got -> check "request round trip" true (got = req)
      | Error e -> Alcotest.fail ("request round trip failed: " ^ e))
    cases

let test_wire_response_roundtrip () =
  let cases =
    [
      Wire.Welcome { version = 1; server = "trustseq test" };
      Wire.Result
        {
          id = 5;
          status = "settled";
          exit_code = 0;
          cache_hit = true;
          ticks = 10;
          events = 4;
          attempts = 1;
          exposure_peak = 30;
          exposure_ticks = 6;
          exposure_violations = 0;
          reason = None;
        };
      Wire.Result
        {
          id = 6;
          status = "error";
          exit_code = 2;
          cache_hit = false;
          ticks = 0;
          events = 0;
          attempts = 0;
          exposure_peak = 0;
          exposure_ticks = 0;
          exposure_violations = 0;
          reason = Some "<wire>:1:1: expected a declaration, found 'nope'";
        };
      Wire.Busy { id = 7 };
      Wire.Pong { id = 8 };
      Wire.Text { id = 9; kind = "metrics"; text = "# TYPE x counter\nx 1\n" };
      Wire.Refused { id = None; reason = "unsupported protocol version 9" };
      Wire.Refused { id = Some 4; reason = "oversized frame" };
    ]
  in
  List.iter
    (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok got -> check "response round trip" true (got = resp)
      | Error e -> Alcotest.fail ("response round trip failed: " ^ e))
    cases

let test_wire_malformed () =
  List.iter
    (fun payload ->
      match Wire.decode_request payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("decoded malformed request: " ^ payload))
    [ ""; "nonsense"; "{}"; "{\"type\":\"warp\"}"; "{\"type\":\"submit\",\"id\":1}" ]

(* -- admission -- *)

let test_admission_bound () =
  let q = Admission.create ~bound:2 () in
  check "first admitted" true (Admission.try_push q 1);
  check "second admitted" true (Admission.try_push q 2);
  check "third refused" false (Admission.try_push q 3);
  check "pops in order" true (Admission.pop q = Some 1);
  check "bound frees up" true (Admission.try_push q 4);
  check "refused at the bound again" false (Admission.try_push q 5);
  check "the refused item was never queued" true
    (List.init 3 (fun _ -> Admission.pop q) = [ Some 2; Some 4; None ])

let test_admission_zero_bound () =
  let q = Admission.create ~bound:0 () in
  check "everything refused" false (Admission.try_push q ());
  check "nothing admitted" true (Admission.pop q = None)

(* -- live server -- *)

let good_spec =
  String.concat "\n"
    [
      "principal c : consumer";
      "principal p : producer";
      "trusted t";
      "deal cp: c pays $10; p gives \"d\"; via t";
      "";
    ]

let sock_path name = Printf.sprintf "/tmp/trustseq-test-%d-%s.sock" (Unix.getpid ()) name

(* Start a server in its own domain, run [f client_addr stop], then
   stop, join, and hand the final stats to [after]. *)
let with_server ?(config = Server.default) ?metrics name f after =
  let path = sock_path name in
  let stop = Atomic.make false in
  let cfg = { config with Server.unix_path = Some path } in
  let srv = Domain.spawn (fun () -> Server.run ~stop ?metrics cfg) in
  let rec await n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else begin
      ignore (Unix.select [] [] [] 0.01);
      await (n - 1)
    end
  in
  await 500;
  let finally () =
    Atomic.set stop true;
    Domain.join srv
  in
  (try f ("unix:" ^ path) stop
   with e ->
     ignore (finally ());
     raise e);
  after (finally ())

let test_server_submit_settles () =
  with_server "settle"
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.submit client ~id:1 ~spec:good_spec with
        | Ok (Wire.Result { status; exit_code; cache_hit; _ }) ->
          check_string "settled" "settled" status;
          check_int "exit 0" 0 exit_code;
          check "first sight misses the cache" false cache_hit
        | Ok _ -> Alcotest.fail "expected a result"
        | Error e -> Alcotest.fail e);
        (* the identical spec again: now a cache hit, same verdict *)
        (match Client.submit client ~id:2 ~spec:good_spec with
        | Ok (Wire.Result { status; cache_hit; _ }) ->
          check_string "settled again" "settled" status;
          check "second sight hits" true cache_hit
        | Ok _ -> Alcotest.fail "expected a result"
        | Error e -> Alcotest.fail e);
        (* a rejected spec still answers — with the parse position *)
        (match Client.submit client ~id:3 ~spec:"garbage here" with
        | Ok (Wire.Result { status; exit_code; reason; _ }) ->
          check_string "error status" "error" status;
          check_int "exit 2" 2 exit_code;
          check "reason names the wire source" true
            (match reason with Some r -> String.length r > 0 && String.sub r 0 6 = "<wire>" | None -> false)
        | Ok _ -> Alcotest.fail "expected a result"
        | Error e -> Alcotest.fail e);
        (match Client.request client (Wire.Ping { id = 4 }) with
        | Ok (Wire.Pong { id }) -> check_int "pong echoes id" 4 id
        | _ -> Alcotest.fail "expected pong");
        Client.close client)
    (fun stats ->
      check_int "three submissions served" 3 stats.Server.served;
      check_int "two settled" 2 stats.Server.settled;
      check_int "one aborted (the parse error)" 1 stats.Server.aborted;
      check "drained" true stats.Server.drained)

let test_server_garbage_before_handshake () =
  with_server "garbage"
    (fun addr _stop ->
      let path = String.sub addr 5 (String.length addr - 5) in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let garbage = "GET / HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd garbage 0 (String.length garbage));
      (* the daemon answers refused, then closes; read to EOF *)
      let d = Frame.create () in
      let buf = Bytes.create 4096 in
      let rec slurp acc =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> acc
        | n -> slurp (acc @ Frame.feed d buf n)
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> acc
      in
      let events = slurp [] in
      Unix.close fd;
      (match events with
      | [ Frame.Frame payload ] -> (
        match Wire.decode_response payload with
        | Ok (Wire.Refused _) -> ()
        | _ -> Alcotest.fail "expected a refused response")
      | [] -> () (* the close can outrun the refusal; the counter below still proves it *)
      | _ -> Alcotest.fail "expected at most the refusal frame");
      (* the server survives: a well-behaved client still gets through *)
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.submit client ~id:1 ~spec:good_spec with
        | Ok (Wire.Result { status; _ }) -> check_string "still serving" "settled" status
        | _ -> Alcotest.fail "expected a result after the garbage connection");
        Client.close client)
    (fun stats ->
      check "garbage counted as a protocol error" true (stats.Server.protocol_errors > 0);
      check_int "the good submission served" 1 stats.Server.served;
      check "drained" true stats.Server.drained)

let test_server_zero_pending_is_busy () =
  with_server "busy"
    ~config:{ Server.default with Server.max_pending = 0 }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.submit client ~id:1 ~spec:good_spec with
        | Ok (Wire.Busy { id }) -> check_int "busy echoes id" 1 id
        | Ok _ -> Alcotest.fail "expected busy with a zero admission bound"
        | Error e -> Alcotest.fail e);
        Client.close client)
    (fun stats ->
      check_int "nothing served" 0 stats.Server.served;
      check_int "one busy answer" 1 stats.Server.busy;
      check "drained" true stats.Server.drained)

let test_server_drain_with_half_frame () =
  (* a client cut off mid-frame must not wedge the drain *)
  with_server "halfframe"
    (fun addr stop ->
      let path = String.sub addr 5 (String.length addr - 5) in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* half a header: a frame the server will never see completed *)
      ignore (Unix.write_substring fd "\000\000" 0 2);
      Atomic.set stop true;
      (* leave fd open across the drain; close after the join in [after]
         via this closure capture *)
      ignore (Unix.select [] [] [] 0.05);
      Unix.close fd)
    (fun stats ->
      check "drain completes despite the half frame" true stats.Server.drained)

let test_server_epoch_aging_live () =
  (* tiny epochs: every 2 served requests, sweep entries idle 1 epoch.
     Distinct specs never repeat, so everything ages out. *)
  with_server "aging"
    ~config:{ Server.default with Server.epoch_every = 2; Server.max_idle_epochs = 1 }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        for i = 1 to 10 do
          let spec =
            String.concat "\n"
              [
                Printf.sprintf "principal c%d : consumer" i;
                "principal p : producer";
                "trusted t";
                Printf.sprintf "deal d: c%d pays $10; p gives \"doc\"; via t" i;
                "";
              ]
          in
          match Client.submit client ~id:i ~spec with
          | Ok (Wire.Result _) -> ()
          | Ok _ -> Alcotest.fail "expected a result"
          | Error e -> Alcotest.fail e
        done;
        Client.close client)
    (fun stats ->
      check_int "ten served" 10 stats.Server.served;
      check "epochs ticked" true (stats.Server.epochs >= 4);
      check "the one-shot tail ages out" true (stats.Server.aged_out > 0);
      check "resident stays below served" true (stats.Server.cache_size < 10))

(* -- live tracing over the wire: the trace request drains the ring -- *)

let decode_exn dump =
  match Ring.decode dump with
  | Ok r -> r
  | Error e -> Alcotest.fail ("ring decode failed: " ^ e)

let test_server_trace_drain () =
  (* sample everything so both submissions land in the ring *)
  with_server "tracedrain"
    ~config:{ Server.default with Server.trace_sample = 1.0 }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        List.iter
          (fun id ->
            match Client.submit client ~id ~spec:good_spec with
            | Ok (Wire.Result { status; _ }) -> check_string "settled" "settled" status
            | Ok _ -> Alcotest.fail "expected a result"
            | Error e -> Alcotest.fail e)
          [ 1; 2 ];
        (match Client.trace client ~id:3 with
        | Error e -> Alcotest.fail e
        | Ok dump ->
          let sessions, stats = decode_exn dump in
          check_int "both sessions in the ring" 2 (List.length sessions);
          check_int "decoder agrees" 2 stats.Ring.d_sessions;
          check "head-sampled" true
            (List.for_all (fun s -> s.Ring.s_keep = Ring.Sampled) sessions);
          let jsonl = Ring.export Trust_obs.Obs.Jsonl sessions in
          check "daemon root span present" true
            (let n = String.length jsonl and k = "daemon.request" in
             let kl = String.length k in
             let rec at i = i + kl <= n && (String.sub jsonl i kl = k || at (i + 1)) in
             at 0));
        (* drain semantics: a second trace sees only what came after *)
        (match Client.trace client ~id:4 with
        | Error e -> Alcotest.fail e
        | Ok dump ->
          let sessions, stats = decode_exn dump in
          check_int "idle drain is empty" 0 (List.length sessions);
          check "lifetime written counter survives the drain" true (stats.Ring.d_written > 0));
        Client.close client)
    (fun stats -> check_int "two submissions served" 2 stats.Server.served)

let test_server_trace_tail_promotion () =
  (* nothing head-sampled, but an impossible deadline expires every
     session — the tail rules must replay it into the ring anyway *)
  with_server "tracetail"
    ~config:
      {
        Server.default with
        Server.trace_sample = 0.0;
        scheduler = { Scheduler.default_config with Scheduler.session_deadline = 1 };
      }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.submit client ~id:1 ~spec:good_spec with
        | Ok (Wire.Result { status; _ }) -> check_string "expired" "expired" status
        | Ok _ -> Alcotest.fail "expected a result"
        | Error e -> Alcotest.fail e);
        (match Client.trace client ~id:2 with
        | Error e -> Alcotest.fail e
        | Ok dump -> (
          match decode_exn dump with
          | [ s ], _ ->
            check_string "promoted as an expiry" (Ring.keep_label Ring.Expiry)
              (Ring.keep_label s.Ring.s_keep)
          | sessions, _ ->
            Alcotest.fail
              (Printf.sprintf "expected exactly the expired session, got %d"
                 (List.length sessions))));
        Client.close client)
    (fun stats -> check_int "one expired" 1 stats.Server.expired)

let test_server_trace_disabled_is_empty () =
  with_server "tracenone"
    ~config:{ Server.default with Server.trace_ring = 0 }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.trace client ~id:1 with
        | Error e -> Alcotest.fail e
        | Ok dump ->
          let sessions, stats = decode_exn dump in
          check_int "no sessions" 0 (List.length sessions);
          check_int "zero-shard dump" 0 stats.Ring.d_shards);
        Client.close client)
    (fun stats -> check_int "nothing served" 0 stats.Server.served)

(* The daemon and the batch scheduler share one retention rule: the
   same specs, scheduler seed, sample rate and defector rule must keep
   the same sessions for the same reasons, and count them alike. *)
let test_retention_matches_batch () =
  let defect_every = 3 and rate = 0.25 in
  let sched =
    { Scheduler.default_config with Scheduler.seed = 11L; drop_rate = 0.1; sample_rate = rate }
  in
  let double_spend =
    String.concat "\n"
      [
        "principal b : broker";
        "principal c1 : consumer";
        "principal c2 : consumer";
        "trusted t1";
        "trusted t2";
        "deal s1: c1 pays $10; b gives \"d\"; via t1";
        "deal s2: c2 pays $10; b gives \"d\"; via t2";
        "";
      ]
  in
  let texts =
    let rng = Workload.Prng.create 5L in
    List.init 40 (fun i ->
        if i mod 10 = 4 then double_spend
        else
          Trust_lang.Printer.to_string
            (Workload.Gen.random_transaction rng Workload.Gen.default_mix))
  in
  let capacity = 1 lsl 22 in
  let counts metrics =
    List.map
      (fun name -> (name, Trust_serve.Metrics.value (Trust_serve.Metrics.counter metrics name)))
      [
        "obs_sessions_sampled_total";
        "obs_sessions_kept_tail_total";
        "obs_ring_records_dropped_total";
      ]
  in
  let labels sessions =
    List.sort compare
      (List.map (fun s -> (s.Ring.s_id, Ring.keep_label s.Ring.s_keep)) sessions)
  in
  (* batch: the daemon's parse and defector rule, applied up front *)
  let batch_metrics = Trust_serve.Metrics.create () in
  let ring = Ring.create ~capacity () in
  let sessions =
    List.mapi
      (fun n text ->
        match Trust_lang.Elaborate.from_string text with
        | Error e -> Alcotest.fail e
        | Ok spec ->
          let defectors =
            if (n + 1) mod defect_every = 0 then
              match Trust_sim.Harness.defectable_principals spec with
              | party :: _ -> [ (party, Trust_sim.Harness.Silent) ]
              | [] -> []
            else []
          in
          Trust_serve.Session.make ~id:n ~defectors spec)
      texts
  in
  ignore
    (Scheduler.run ~metrics:batch_metrics ~ring sched
       (Trust_serve.Cache.create Trust_serve.Cache.default_policy)
       sessions
      : Scheduler.stats);
  let batch_labels = labels (fst (decode_exn (Ring.drain ring))) in
  (* daemon: the same texts over the wire, in order *)
  let daemon_metrics = Trust_serve.Metrics.create () in
  let daemon_labels = ref [] in
  with_server "retention" ~metrics:daemon_metrics
    ~config:
      {
        Server.default with
        Server.scheduler = sched;
        trace_sample = rate;
        trace_ring = capacity;
        defect_every;
      }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        List.iteri
          (fun id spec ->
            match Client.submit client ~id ~spec with
            | Ok (Wire.Result _ | Wire.Refused _) -> ()
            | Ok _ -> Alcotest.fail "expected a result"
            | Error e -> Alcotest.fail e)
          texts;
        (match Client.trace client ~id:(List.length texts) with
        | Error e -> Alcotest.fail e
        | Ok dump -> daemon_labels := labels (fst (decode_exn dump)));
        Client.close client)
    (fun _ -> ());
  let kinds = List.sort_uniq compare (List.map snd batch_labels) in
  check "the workload exercises head and tail keeps" true
    (List.mem "sampled" kinds && List.length kinds >= 3);
  Alcotest.(check (list (pair int string))) "same keep label per session" batch_labels
    !daemon_labels;
  Alcotest.(check (list (pair string int))) "same retention counters" (counts batch_metrics)
    (counts daemon_metrics)

let () =
  Alcotest.run "daemon"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "byte at a time" `Quick test_frame_byte_at_a_time;
          Alcotest.test_case "batch and split header" `Quick test_frame_batch_and_split;
          Alcotest.test_case "oversized poisons" `Quick test_frame_oversized_poisons;
          Alcotest.test_case "ascii garbage is oversized" `Quick test_frame_ascii_garbage_is_oversized;
          Alcotest.test_case "empty payloads" `Quick test_frame_empty_and_bounds;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_wire_response_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_wire_malformed;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bound and counters" `Quick test_admission_bound;
          Alcotest.test_case "zero bound refuses all" `Quick test_admission_zero_bound;
        ] );
      ( "server",
        [
          Alcotest.test_case "submit settles" `Quick test_server_submit_settles;
          Alcotest.test_case "garbage before handshake" `Quick test_server_garbage_before_handshake;
          Alcotest.test_case "zero pending is busy" `Quick test_server_zero_pending_is_busy;
          Alcotest.test_case "drain with half frame" `Quick test_server_drain_with_half_frame;
          Alcotest.test_case "epoch aging live" `Quick test_server_epoch_aging_live;
          Alcotest.test_case "trace drains the ring" `Quick test_server_trace_drain;
          Alcotest.test_case "tail promotion over the wire" `Quick test_server_trace_tail_promotion;
          Alcotest.test_case "trace with tracing off" `Quick test_server_trace_disabled_is_empty;
          Alcotest.test_case "retention matches the batch" `Quick test_retention_matches_batch;
        ] );
    ]
