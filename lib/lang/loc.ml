type t = { line : int; col : int }

let start = { line = 1; col = 1 }

let advance pos = function
  | '\n' -> { line = pos.line + 1; col = 1 }
  | _ -> { pos with col = pos.col + 1 }

let compare a b =
  match Int.compare a.line b.line with 0 -> Int.compare a.col b.col | c -> c

let pp_located ?file ppf pos =
  match file with
  | Some file -> Format.fprintf ppf "%s:%d:%d" file pos.line pos.col
  | None -> Format.fprintf ppf "%d:%d" pos.line pos.col

type 'a located = { value : 'a; loc : t }

let at loc value = { value; loc }
