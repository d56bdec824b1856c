(* A fixed-size pool of OCaml 5 domains draining one bounded FIFO of
   jobs. The pool carries no notion of sessions or results: callers
   submit closures that write their outcome into caller-owned slots,
   and [shutdown] joins every worker before the caller reads them, so
   the join is the only synchronization the results need. *)

type stats = {
  workers : int;
  executed : int;
  worker_waits : int;
  submit_waits : int;
  peak_depth : int;
}

type t = {
  size : int;
  capacity : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  space_available : Condition.t;
  mutable closed : bool;
  mutable peak_depth : int;
  executed : int Atomic.t;
  worker_waits : int Atomic.t;
  submit_waits : int Atomic.t;
  (* First job exception (with its backtrace), re-raised by [shutdown]
     on the spawning domain so failures cannot vanish into a worker. *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable domains : unit Domain.t array;
}

let worker t () =
  let rec next () =
    Mutex.lock t.lock;
    let rec take () =
      match Queue.take_opt t.queue with
      | Some job ->
        Condition.signal t.space_available;
        Mutex.unlock t.lock;
        Some job
      | None ->
        if t.closed then begin
          Mutex.unlock t.lock;
          None
        end
        else begin
          ignore (Atomic.fetch_and_add t.worker_waits 1);
          Condition.wait t.work_available t.lock;
          take ()
        end
    in
    match take () with
    | None -> ()
    | Some job ->
      (try
         job ();
         ignore (Atomic.fetch_and_add t.executed 1)
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set t.failure None (Some (e, bt))));
      next ()
  in
  next ()

let create ?(queue_capacity = 256) ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  if queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity must be >= 1";
  let t =
    {
      size = jobs;
      capacity = queue_capacity;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      space_available = Condition.create ();
      closed = false;
      peak_depth = 0;
      executed = Atomic.make 0;
      worker_waits = Atomic.make 0;
      submit_waits = Atomic.make 0;
      failure = Atomic.make None;
      domains = [||];
    }
  in
  t.domains <- Array.init jobs (fun _ -> Domain.spawn (worker t));
  t

let submit t job =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  while Queue.length t.queue >= t.capacity do
    ignore (Atomic.fetch_and_add t.submit_waits 1);
    Condition.wait t.space_available t.lock
  done;
  Queue.add job t.queue;
  if Queue.length t.queue > t.peak_depth then t.peak_depth <- Queue.length t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.lock

let stats t =
  Mutex.lock t.lock;
  let peak_depth = t.peak_depth in
  Mutex.unlock t.lock;
  {
    workers = t.size;
    executed = Atomic.get t.executed;
    worker_waits = Atomic.get t.worker_waits;
    submit_waits = Atomic.get t.submit_waits;
    peak_depth;
  }

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.work_available;
  Condition.broadcast t.space_available;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.domains;
  match Atomic.get t.failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()
