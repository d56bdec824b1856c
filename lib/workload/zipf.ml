type t = { cum : float array }

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0. then invalid_arg "Zipf.create: s must be non-negative";
  let cum = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (k + 1)) s);
    cum.(k) <- !total
  done;
  let z = !total in
  Array.iteri (fun i c -> cum.(i) <- c /. z) cum;
  { cum }

let size t = Array.length t.cum

let sample t rng =
  let r = Prng.float rng in
  (* first rank whose cumulative mass exceeds r; the last entry is 1.0
     (up to rounding) and [r < 1.], so the search always lands *)
  let lo = ref 0 and hi = ref (Array.length t.cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cum.(mid) > r then hi := mid else lo := mid + 1
  done;
  !lo

let pmf t k =
  if k < 0 || k >= Array.length t.cum then invalid_arg "Zipf.pmf: rank out of range";
  if k = 0 then t.cum.(0) else t.cum.(k) -. t.cum.(k - 1)
