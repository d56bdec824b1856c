module Prng = Workload.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_deterministic () =
  let a = Prng.create 7L and b = Prng.create 7L in
  let xs = List.init 20 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 20 (fun _ -> Prng.next_int64 b) in
  check "same seed, same stream" true (xs = ys)

let test_seeds_differ () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let xs = List.init 10 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Prng.next_int64 b) in
  check "different seeds diverge" true (xs <> ys)

let test_copy () =
  let a = Prng.create 99L in
  let _ = Prng.next_int64 a in
  let b = Prng.copy a in
  check "copy continues identically" true (Prng.next_int64 a = Prng.next_int64 b)

let test_int_bounds () =
  let rng = Prng.create 5L in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_int_bound_one () =
  let rng = Prng.create 5L in
  check_int "bound 1 is constant 0" 0 (Prng.int rng 1)

let test_int_invalid () =
  let rng = Prng.create 5L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_float_range () =
  let rng = Prng.create 3L in
  for _ = 1 to 1000 do
    let f = Prng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_int_covers_values () =
  let rng = Prng.create 11L in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Prng.int rng 4) <- true
  done;
  check "all residues hit" true (Array.for_all Fun.id seen)

let test_split_independent () =
  let a = Prng.create 4L in
  let b = Prng.split a in
  let xs = List.init 5 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 5 (fun _ -> Prng.next_int64 b) in
  check "split streams differ" true (xs <> ys)

let prop_int_in_range =
  QCheck2.Test.make ~name:"int always lands in [0, bound)" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (bound, seed) ->
      let rng = Prng.create (Int64.of_int seed) in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic stream" `Quick test_deterministic;
          Alcotest.test_case "seeds diverge" `Quick test_seeds_differ;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int bound one" `Quick test_int_bound_one;
          Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
          Alcotest.test_case "float in [0,1)" `Quick test_float_range;
          Alcotest.test_case "int covers residues" `Quick test_int_covers_values;
          Alcotest.test_case "split independence" `Quick test_split_independent;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_int_in_range ]);
    ]
