open Exchange

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_constructors () =
  check "doc is document" true (Asset.is_document (Asset.document "d"));
  check "money is not a document" false (Asset.is_document (Asset.money 100));
  Alcotest.check_raises "negative" (Invalid_argument "Asset.money: negative amount") (fun () ->
      ignore (Asset.money (-1)))

let test_dollars () =
  check_int "10 dollars" 1000 (Asset.dollars 10);
  check_int "zero" 0 (Asset.dollars 0)

let test_amount_value () =
  Alcotest.(check (option int)) "amount of money" (Some 250) (Asset.amount (Asset.money 250));
  Alcotest.(check (option int)) "amount of doc" None (Asset.amount (Asset.document "x"));
  check_int "value of money" 250 (Asset.value (Asset.money 250));
  check_int "value of doc" 0 (Asset.value (Asset.document "x"))

let test_ordering () =
  check "docs before money" true (Asset.compare (Asset.document "z") (Asset.money 0) < 0);
  check "doc by name" true (Asset.compare (Asset.document "a") (Asset.document "b") < 0);
  check "money by amount" true (Asset.compare (Asset.money 1) (Asset.money 2) < 0);
  check "equal" true (Asset.equal (Asset.money 5) (Asset.money 5))

let test_pp_money () =
  check_str "whole dollars" "$12" (Format.asprintf "%a" Asset.pp_money 1200);
  check_str "cents" "$12.34" (Format.asprintf "%a" Asset.pp_money 1234);
  check_str "single cent" "$0.01" (Format.asprintf "%a" Asset.pp_money 1);
  check_str "doc" "doc(d1)" (Format.asprintf "%a" Asset.pp (Asset.document "d1"))

(* Bag *)

let bag_of assets = List.fold_left (fun bag a -> Asset.Bag.add a bag) Asset.Bag.empty assets

let test_bag_empty () =
  check_int "balance" 0 (Asset.Bag.balance Asset.Bag.empty);
  Alcotest.(check (list (pair string int))) "no docs" [] (Asset.Bag.documents Asset.Bag.empty)

let test_bag_add_money () =
  let bag = Asset.Bag.add (Asset.money 300) (Asset.Bag.add (Asset.money 200) Asset.Bag.empty) in
  check_int "aggregated" 500 (Asset.Bag.balance bag);
  check "holds 500" true (Asset.Bag.holds (Asset.money 500) bag);
  check "holds 100" true (Asset.Bag.holds (Asset.money 100) bag);
  check "not 501" false (Asset.Bag.holds (Asset.money 501) bag)

let test_bag_docs_counted () =
  let bag = bag_of [ Asset.document "d"; Asset.document "d"; Asset.document "e" ] in
  Alcotest.(check (list (pair string int))) "counts" [ ("d", 2); ("e", 1) ]
    (Asset.Bag.documents bag)

let test_bag_remove_money () =
  let bag = bag_of [ Asset.money 100 ] in
  (match Asset.Bag.remove (Asset.money 40) bag with
  | None -> Alcotest.fail "should afford $0.40"
  | Some rest -> check_int "change" 60 (Asset.Bag.balance rest));
  check "overdraft" true (Asset.Bag.remove (Asset.money 101) bag = None)

let test_bag_remove_doc () =
  let bag = bag_of [ Asset.document "d"; Asset.document "d" ] in
  match Asset.Bag.remove (Asset.document "d") bag with
  | None -> Alcotest.fail "has two copies"
  | Some bag1 -> (
    check "one left" true (Asset.Bag.holds (Asset.document "d") bag1);
    match Asset.Bag.remove (Asset.document "d") bag1 with
    | None -> Alcotest.fail "has one copy"
    | Some bag0 ->
      check "none left" false (Asset.Bag.holds (Asset.document "d") bag0);
      check "absent doc" true (Asset.Bag.remove (Asset.document "x") bag0 = None))

let test_bag_equal () =
  let a = bag_of [ Asset.money 100; Asset.document "d" ] in
  let b = bag_of [ Asset.document "d"; Asset.money 100 ] in
  check "order independent" true (Asset.Bag.equal a b);
  check "differs" false (Asset.Bag.equal a Asset.Bag.empty)

let prop_bag_add_remove =
  QCheck2.Test.make ~name:"add then remove restores the bag" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 8)
           (oneof [ map (fun n -> Asset.money (abs n mod 1000)) int; map (fun s -> Asset.document (String.make 1 (Char.chr (97 + (abs s mod 5))))) int ]))
        (oneof [ map (fun n -> Asset.money (abs n mod 1000)) int; map (fun s -> Asset.document (String.make 1 (Char.chr (97 + (abs s mod 5))))) int ]))
    (fun (contents, extra) ->
      let bag = bag_of contents in
      match Asset.Bag.remove extra (Asset.Bag.add extra bag) with
      | Some restored -> Asset.Bag.equal bag restored
      | None -> false)

let () =
  Alcotest.run "asset"
    [
      ( "asset",
        [
          Alcotest.test_case "constructors" `Quick test_constructors;
          Alcotest.test_case "dollars" `Quick test_dollars;
          Alcotest.test_case "amount and value" `Quick test_amount_value;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "printing" `Quick test_pp_money;
        ] );
      ( "bag",
        [
          Alcotest.test_case "empty" `Quick test_bag_empty;
          Alcotest.test_case "money aggregates" `Quick test_bag_add_money;
          Alcotest.test_case "documents counted" `Quick test_bag_docs_counted;
          Alcotest.test_case "remove money" `Quick test_bag_remove_money;
          Alcotest.test_case "remove documents" `Quick test_bag_remove_doc;
          Alcotest.test_case "equality" `Quick test_bag_equal;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_bag_add_remove ]);
    ]
