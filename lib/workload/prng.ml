type t = { mutable state : int64 }

let create seed = { state = seed }
let copy t = { state = t.state }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 (Steele, Lea & Flood 2014). *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62
     so bias is negligible for workload generation. The shift by 2 keeps
     the value within OCaml's 63-bit native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t =
  let bits53 = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bits53 /. 9007199254740992.0 (* 2^53 *)

let split t = create (next_int64 t)
