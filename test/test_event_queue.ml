module Event_queue = Trust_sim.Event_queue

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let drain q =
  let rec loop acc =
    match Event_queue.pop q with None -> List.rev acc | Some e -> loop (e :: acc)
  in
  loop []

let test_empty () =
  let q = Event_queue.create () in
  check_int "empty" 0 (Event_queue.length q);
  check "pop none" true (Event_queue.pop q = None)

let test_time_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:5 "e";
  Event_queue.push q ~time:1 "a";
  Event_queue.push q ~time:3 "c";
  Alcotest.(check (list (pair int string))) "sorted" [ (1, "a"); (3, "c"); (5, "e") ] (drain q)

let test_fifo_ties () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:2 "first";
  Event_queue.push q ~time:2 "second";
  Event_queue.push q ~time:2 "third";
  Alcotest.(check (list string)) "insertion order within a tick"
    [ "first"; "second"; "third" ]
    (List.map snd (drain q))

let test_interleaved () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:4 "d";
  Event_queue.push q ~time:2 "b";
  (match Event_queue.pop q with
  | Some (2, "b") -> ()
  | _ -> Alcotest.fail "expected (2, b)");
  Event_queue.push q ~time:1 "a";
  (match Event_queue.pop q with
  | Some (1, "a") -> ()
  | _ -> Alcotest.fail "expected (1, a)");
  check_int "one left" 1 (Event_queue.length q)

let test_growth () =
  let q = Event_queue.create () in
  for i = 1000 downto 1 do
    Event_queue.push q ~time:i i
  done;
  check_int "all stored" 1000 (Event_queue.length q);
  let popped = drain q in
  check "sorted ascending" true (List.map fst popped = List.init 1000 (fun i -> i + 1))

let prop_pop_sorted =
  QCheck2.Test.make ~name:"pop yields times in nondecreasing order" ~count:300
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 50))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t t) times;
      let popped = List.map fst (drain q) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      sorted popped && List.length popped = List.length times)

let prop_stable_within_time =
  QCheck2.Test.make ~name:"equal-time events keep insertion order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) (int_range 0 5))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push q ~time:t (t, i)) times;
      let popped = List.map snd (drain q) in
      (* within each time bucket, sequence numbers ascend *)
      let rec check_bucket = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
          (t1 <> t2 || i1 < i2) && check_bucket rest
        | _ -> true
      in
      check_bucket popped)

let () =
  Alcotest.run "event_queue"
    [
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "time order" `Quick test_time_order;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
          Alcotest.test_case "growth" `Quick test_growth;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_pop_sorted; prop_stable_within_time ] );
    ]
