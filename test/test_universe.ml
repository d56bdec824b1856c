(* The million-principal universe: exact Zipf sampling, role
   partitioning, deterministic draws that survive the printer/parser
   round trip, and byte-identical catalog-template replay (the property
   the daemon's cache hits depend on). *)

module Universe = Workload.Universe
module Zipf = Workload.Zipf
module Prng = Workload.Prng
module Printer = Trust_lang.Printer
module Elaborate = Trust_lang.Elaborate
module Spec = Exchange.Spec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* small enough to be fast, big enough that the role shares bite *)
let small = { Universe.default_config with Universe.principals = 10_000 }

(* -- zipf -- *)

let test_zipf_pmf () =
  let z = Zipf.create ~n:50 ~s:1.1 in
  check_int "size" 50 (Zipf.size z);
  let total = ref 0. in
  for k = 0 to 49 do
    total := !total +. Zipf.pmf z k
  done;
  check "pmf sums to 1" true (abs_float (!total -. 1.) < 1e-9);
  for k = 0 to 48 do
    check "pmf monotone decreasing" true (Zipf.pmf z k > Zipf.pmf z (k + 1))
  done

let test_zipf_uniform () =
  let z = Zipf.create ~n:10 ~s:0. in
  for k = 0 to 9 do
    check "s=0 is uniform" true (abs_float (Zipf.pmf z k -. 0.1) < 1e-9)
  done

let test_zipf_deterministic () =
  let z = Zipf.create ~n:1000 ~s:1.2 in
  let seq seed =
    let rng = Prng.create seed in
    List.init 100 (fun _ -> Zipf.sample z rng)
  in
  check "same seed, same ranks" true (seq 5L = seq 5L);
  check "different seed, different ranks" true (seq 5L <> seq 6L);
  List.iter (fun k -> check "ranks in range" true (k >= 0 && k < 1000)) (seq 5L)

let test_zipf_concentration () =
  (* s = 1.2 over a thousand ranks: rank 0 alone must dwarf the tail
     rank's mass — the heavy-hitter regime the brokers run in *)
  let z = Zipf.create ~n:1000 ~s:1.2 in
  check "head dominates tail" true (Zipf.pmf z 0 > 100. *. Zipf.pmf z 999);
  let rng = Prng.create 11L in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Zipf.sample z rng < 10 then incr hits
  done;
  check "top-10 ranks draw a big share" true (!hits > 300)

(* -- universe -- *)

let test_partition () =
  let u = Universe.create small in
  let total =
    Universe.consumers u + Universe.producers u + Universe.brokers u + Universe.agents u
  in
  check_int "partition covers the universe" small.Universe.principals total;
  check "consumers are the bulk" true (Universe.consumers u > Universe.producers u);
  check "brokers are rare" true (Universe.brokers u < Universe.producers u);
  check "every role is populated" true
    (Universe.consumers u > 0 && Universe.producers u > 0 && Universe.brokers u > 0
   && Universe.agents u > 0)

let test_tiny_universe_still_valid () =
  (* shares that round to zero must be floored to a workable cast *)
  let u = Universe.create { small with Universe.principals = 200 } in
  let rng = Prng.create 3L in
  for _ = 1 to 20 do
    ignore (Universe.sample u rng)
  done;
  check "tiny universe samples fine" true true

let test_draws_deterministic () =
  let u = Universe.create small in
  let seq seed =
    let rng = Prng.create seed in
    List.init 30 (fun _ -> Printer.to_string (Universe.sample u rng))
  in
  check "same seed, same specs" true (seq 42L = seq 42L);
  check "different seed, different traffic" true (seq 42L <> seq 43L)

let test_draws_roundtrip () =
  (* every drawn spec must survive print -> parse -> elaborate: the
     loadgen ships specs as DSL source, so a draw the language can't
     express would poison the wire *)
  let u = Universe.create small in
  let rng = Prng.create 7L in
  for i = 1 to 50 do
    let spec = Universe.sample u rng in
    let src = Printer.to_string spec in
    match Elaborate.from_string ~file:"<universe>" src with
    | Ok spec' ->
      check_string
        (Printf.sprintf "draw %d round trips" i)
        src
        (Printer.to_string spec')
    | Error e ->
      Alcotest.failf "draw %d does not elaborate: %s\n%s" i e src
  done

let test_template_replay_identical () =
  (* the catalog contract: traffic from the template slice repeats
     byte-identically across draws and across universes built from the
     same config *)
  let cfg = { small with Universe.template_share = 1.0; Universe.templates = 8 } in
  let u = Universe.create cfg in
  let draw rng = Printer.to_string (Universe.sample u rng) in
  let rng = Prng.create 1L in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 200 do
    let src = draw rng in
    match Hashtbl.find_opt seen src with
    | Some () -> ()
    | None -> Hashtbl.replace seen src ()
  done;
  check "at most the catalog size distinct" true (Hashtbl.length seen <= 8);
  check "more than one template drawn" true (Hashtbl.length seen > 1);
  (* a second universe from the same config replays the same catalog *)
  let u2 = Universe.create cfg in
  let rng1 = Prng.create 9L and rng2 = Prng.create 9L in
  for _ = 1 to 50 do
    check_string "universes agree on templates"
      (Printer.to_string (Universe.sample u rng1))
      (Printer.to_string (Universe.sample u2 rng2))
  done

let test_long_tail_mostly_distinct () =
  (* with the template slice off, casts are drawn from the Zipf laws
     directly: a small sample over ten thousand principals should
     rarely repeat a whole spec *)
  let cfg = { small with Universe.template_share = 0. } in
  let u = Universe.create cfg in
  let rng = Prng.create 21L in
  let seen = Hashtbl.create 64 in
  let n = 100 in
  for _ = 1 to n do
    Hashtbl.replace seen (Printer.to_string (Universe.sample u rng)) ()
  done;
  check "long tail is mostly fresh" true (Hashtbl.length seen > n / 2)

(* The request text of the daemon benchmarks and the batch shape hashes
   are both defined by these streams: the Zipf draw order of
   [Universe.sample] and the fixed cast of [Gen.random_transactions].
   A builder refactor that reorders one PRNG draw or renames one party
   changes the digest. *)
let stream_digest specs =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map Spec.shape_hex specs)))

let test_streams_pinned () =
  let universe cfg =
    let u = Universe.create cfg and rng = Prng.create 7L in
    stream_digest (List.init 2_000 (fun _ -> Universe.sample u rng))
  in
  check_string "default_config at seed 7" "388b50391863d60e33d8f5afa02db673"
    (universe Universe.default_config);
  check_string "defect_heavy at seed 7" "44f4d3544f995e387d4d154b84c5d770"
    (universe Universe.defect_heavy);
  check_string "Gen.random_transactions at seed 42" "241df8da98535ac29308fa0bdd30cfaa"
    (stream_digest
       (Workload.Gen.random_transactions (Prng.create 42L) Workload.Gen.default_mix 2_000))

let () =
  Alcotest.run "universe"
    [
      ( "zipf",
        [
          Alcotest.test_case "pmf sums and orders" `Quick test_zipf_pmf;
          Alcotest.test_case "uniform at s=0" `Quick test_zipf_uniform;
          Alcotest.test_case "deterministic in the seed" `Quick test_zipf_deterministic;
          Alcotest.test_case "heavy-hitter concentration" `Quick test_zipf_concentration;
        ] );
      ( "universe",
        [
          Alcotest.test_case "role partition" `Quick test_partition;
          Alcotest.test_case "tiny universe floors" `Quick test_tiny_universe_still_valid;
          Alcotest.test_case "deterministic draws" `Quick test_draws_deterministic;
          Alcotest.test_case "draws elaborate round trip" `Quick test_draws_roundtrip;
          Alcotest.test_case "template replay identical" `Quick test_template_replay_identical;
          Alcotest.test_case "long tail mostly distinct" `Quick test_long_tail_mostly_distinct;
          Alcotest.test_case "pinned draw streams" `Quick test_streams_pinned;
        ] );
    ]
