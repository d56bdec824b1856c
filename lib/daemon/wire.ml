module Json = Trust_obs.Json

let version = 1

type request =
  | Hello of { version : int }
  | Submit of { id : int; spec : string }
  | Ping of { id : int }
  | Metrics of { id : int }
  | Stats of { id : int }
  | Trace of { id : int }

type response =
  | Welcome of { version : int; server : string }
  | Result of {
      id : int;
      status : string;
      exit_code : int;
      cache_hit : bool;
      ticks : int;
      events : int;
      attempts : int;
      exposure_peak : int;
      exposure_ticks : int;
      exposure_violations : int;
      reason : string option;
    }
  | Busy of { id : int }
  | Pong of { id : int }
  | Text of { id : int; kind : string; text : string }
  | Refused of { id : int option; reason : string }

let message ty fields = Json.to_string (Json.Obj (("type", Json.Str ty) :: fields))
let with_id ty id = message ty [ ("id", Json.int id) ]

let encode_request = function
  | Hello { version } -> message "hello" [ ("version", Json.int version) ]
  | Submit { id; spec } -> message "submit" [ ("id", Json.int id); ("spec", Json.Str spec) ]
  | Ping { id } -> with_id "ping" id
  | Metrics { id } -> with_id "metrics" id
  | Stats { id } -> with_id "stats" id
  | Trace { id } -> with_id "trace" id

let encode_response = function
  | Welcome { version; server } ->
    message "welcome" [ ("version", Json.int version); ("server", Json.Str server) ]
  | Result r ->
    let int = Json.int in
    message "result"
      ([ ("id", int r.id); ("status", Json.Str r.status); ("exit_code", int r.exit_code);
         ("cache_hit", Json.Bool r.cache_hit); ("ticks", int r.ticks); ("events", int r.events);
         ("attempts", int r.attempts); ("exposure_peak", int r.exposure_peak);
         ("exposure_ticks", int r.exposure_ticks);
         ("exposure_violations", int r.exposure_violations) ]
      @ Option.fold ~none:[] ~some:(fun reason -> [ ("reason", Json.Str reason) ]) r.reason)
  | Busy { id } -> with_id "busy" id
  | Pong { id } -> with_id "pong" id
  | Text { id; kind; text } ->
    message "text" [ ("id", Json.int id); ("kind", Json.Str kind); ("text", Json.Str text) ]
  | Refused { id; reason } ->
    message "refused"
      (Option.fold ~none:[] ~some:(fun id -> [ ("id", Json.int id) ]) id
      @ [ ("reason", Json.Str reason) ])

let decode decoders payload =
  match Json.parse payload with
  | exception Json.Bad m -> Error ("bad json: " ^ m)
  | j -> (
    match Json.as_str (Json.field j "type") with
    | exception Json.Bad m -> Error m
    | ty -> (
      match List.assoc_opt ty decoders with
      | None -> Error (Printf.sprintf "unknown message type %S" ty)
      | Some dec -> ( try dec j with Json.Bad m -> Error (ty ^ ": " ^ m))))

let req_id j = Json.as_int (Json.field j "id")

let decode_request =
  decode
    [
      ("hello", fun j -> Ok (Hello { version = Json.as_int (Json.field j "version") }));
      ( "submit",
        fun j -> Ok (Submit { id = req_id j; spec = Json.as_str (Json.field j "spec") }) );
      ("ping", fun j -> Ok (Ping { id = req_id j }));
      ("metrics", fun j -> Ok (Metrics { id = req_id j }));
      ("stats", fun j -> Ok (Stats { id = req_id j }));
      ("trace", fun j -> Ok (Trace { id = req_id j }));
    ]

let decode_response =
  decode
    [
      ( "welcome",
        fun j ->
          Ok
            (Welcome
               {
                 version = Json.as_int (Json.field j "version");
                 server = Json.as_str (Json.field j "server");
               }) );
      ( "result",
        fun j ->
          Ok
            (Result
               {
                 id = req_id j;
                 status = Json.as_str (Json.field j "status");
                 exit_code = Json.as_int (Json.field j "exit_code");
                 cache_hit = Json.as_bool (Json.field j "cache_hit");
                 ticks = Json.as_int (Json.field j "ticks");
                 events = Json.as_int (Json.field j "events");
                 attempts = Json.as_int (Json.field j "attempts");
                 exposure_peak = Json.as_int (Json.field j "exposure_peak");
                 exposure_ticks = Json.as_int (Json.field j "exposure_ticks");
                 exposure_violations = Json.as_int (Json.field j "exposure_violations");
                 reason = Option.map Json.as_str (Json.field_opt j "reason");
               }) );
      ("busy", fun j -> Ok (Busy { id = req_id j }));
      ("pong", fun j -> Ok (Pong { id = req_id j }));
      ( "text",
        fun j ->
          Ok
            (Text
               {
                 id = req_id j;
                 kind = Json.as_str (Json.field j "kind");
                 text = Json.as_str (Json.field j "text");
               }) );
      ( "refused",
        fun j ->
          Ok
            (Refused
               {
                 id = Option.map Json.as_int (Json.field_opt j "id");
                 reason = Json.as_str (Json.field j "reason");
               }) );
    ]
