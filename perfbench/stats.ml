(* Clock and order statistics shared by every part of the benchmark. *)

(* Monotonic nanoseconds: wall-clock jumps must never land in a sample. *)
let now_ns () = Monotonic_clock.now ()

let elapsed_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let seconds_since t0 = elapsed_ns t0 /. 1e9

(* Linear interpolation between closest ranks (numpy's default), over a
   sorted copy. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

type summary = {
  n : int;
  p10 : float;
  q1 : float;
  median : float;
  q3 : float;
  p90 : float;
  p99 : float;
  mean : float;
}

let summarize values =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let q = quantile sorted in
  {
    n;
    p10 = q 0.10;
    q1 = q 0.25;
    median = q 0.50;
    q3 = q 0.75;
    p90 = q 0.90;
    p99 = q 0.99;
    mean = (if n = 0 then nan else Array.fold_left ( +. ) 0. sorted /. float_of_int n);
  }

let median values = (summarize values).median

let pp_summary ppf s =
  Format.fprintf ppf "n=%d median=%.4g q1=%.4g q3=%.4g p10=%.4g p90=%.4g p99=%.4g" s.n
    s.median s.q1 s.q3 s.p10 s.p90 s.p99

(* -- host speed --

   The host is shared, and its speed drifts by up to 1.6x over spans of
   seconds, longer than a measurement window. A fixed kernel of the
   benchmark's own (hashing, sorting, allocation and list traversal,
   the mix the system under test spends its time on) is timed between
   measurement windows; every reported time is scaled to a host on
   which the kernel takes [reference_ms], and every rate inversely.
   The kernel runs no code of the system under test, so no change to
   the system can move it. *)

let reference_ms = 10.

let probe_kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 5003)) i
  done;
  let a = Array.init 20_000 (fun i -> i * 7919 mod 10_007) in
  Array.sort compare a;
  let l = List.init 20_000 (fun i -> i * a.(i mod 100)) in
  List.fold_left ( + ) (Hashtbl.length h) (List.rev_map (fun x -> x * 2) l)

(* One sample: the kernel's time in ms, the median of three runs. The
   kernel runs on [domains] domains at once and a run lasts until all
   finish: as many as the workload keeps busy (a pool of two domains;
   one server). *)
let probe ~domains =
  median
    (Array.init 3 (fun _ ->
         let t0 = now_ns () in
         let others =
           List.init (domains - 1) (fun _ ->
               Domain.spawn (fun () -> ignore (Sys.opaque_identity (probe_kernel ()))))
         in
         ignore (Sys.opaque_identity (probe_kernel ()));
         List.iter Domain.join others;
         elapsed_ns t0 /. 1e6))

(* Multiply a time by this, divide a rate by it. *)
let host_scale samples = reference_ms /. median samples
