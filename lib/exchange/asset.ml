type money = int

type t = Document of string | Money of money

let document name = Document name

let money amount =
  if amount < 0 then invalid_arg "Asset.money: negative amount";
  Money amount

let dollars d = d * 100

let is_document = function Document _ -> true | Money _ -> false
let amount = function Money m -> Some m | Document _ -> None
let value = function Money m -> m | Document _ -> 0

let compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Document da, Document db -> String.compare da db
    | Money ma, Money mb -> Int.compare ma mb
    | Document _, Money _ -> -1
    | Money _, Document _ -> 1

let equal a b = a == b || compare a b = 0

let pp_money ppf m =
  if m mod 100 = 0 then Format.fprintf ppf "$%d" (m / 100)
  else Format.fprintf ppf "$%d.%02d" (m / 100) (abs (m mod 100))

let pp ppf = function
  | Document d -> Format.fprintf ppf "doc(%s)" d
  | Money m -> pp_money ppf m

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Bag = struct
  type asset = t

  module Docs = Stdlib.Map.Make (String)

  type t = { balance : money; docs : int Docs.t }

  let empty = { balance = 0; docs = Docs.empty }

  let add asset bag =
    match asset with
    | Money m -> { bag with balance = bag.balance + m }
    | Document d ->
      let count = Option.value ~default:0 (Docs.find_opt d bag.docs) in
      { bag with docs = Docs.add d (count + 1) bag.docs }

  let remove asset bag =
    match asset with
    | Money m -> if bag.balance >= m then Some { bag with balance = bag.balance - m } else None
    | Document d -> (
      match Docs.find_opt d bag.docs with
      | None | Some 0 -> None
      | Some 1 -> Some { bag with docs = Docs.remove d bag.docs }
      | Some n -> Some { bag with docs = Docs.add d (n - 1) bag.docs })

  let holds asset bag =
    match asset with
    | Money m -> bag.balance >= m
    | Document d -> ( match Docs.find_opt d bag.docs with Some n -> n > 0 | None -> false)

  let balance bag = bag.balance
  let documents bag = Docs.bindings bag.docs

  let equal a b = a.balance = b.balance && Docs.equal Int.equal a.docs b.docs

  let pp ppf bag =
    Format.fprintf ppf "@[<h>{balance=%a; docs=[%a]}@]" pp_money bag.balance
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf (d, n) -> Format.fprintf ppf "%s x%d" d n))
      (documents bag)
end
