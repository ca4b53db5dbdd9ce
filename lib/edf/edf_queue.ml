module Message = Rtnet_workload.Message

(* Leftist heap keyed by Message.compare_edf. *)
type t = Leaf | Node of { rank : int; msg : Message.t; left : t; right : t }

let empty = Leaf

let is_empty = function Leaf -> true | Node _ -> false

let rank = function Leaf -> 0 | Node { rank; _ } -> rank

let make msg a b =
  let ra = rank a and rb = rank b in
  if ra >= rb then Node { rank = rb + 1; msg; left = a; right = b }
  else Node { rank = ra + 1; msg; left = b; right = a }

let rec merge a b =
  match (a, b) with
  | Leaf, q | q, Leaf -> q
  | Node na, Node nb ->
    if Message.compare_edf na.msg nb.msg <= 0 then
      make na.msg na.left (merge na.right b)
    else make nb.msg nb.left (merge a nb.right)

let insert q m = merge q (Node { rank = 1; msg = m; left = Leaf; right = Leaf })

let peek = function Leaf -> None | Node { msg; _ } -> Some msg

let head = function
  | Leaf -> invalid_arg "Edf_queue.head: empty queue"
  | Node { msg; _ } -> msg

let rest = function Leaf -> Leaf | Node { left; right; _ } -> merge left right

let pop = function
  | Leaf -> None
  | Node { msg; left; right; _ } -> Some (msg, merge left right)

let rec size = function
  | Leaf -> 0
  | Node { left; right; _ } -> 1 + size left + size right

let of_list ms = List.fold_left insert empty ms

let to_sorted_list q =
  let rec go acc q =
    match pop q with None -> List.rev acc | Some (m, q) -> go (m :: acc) q
  in
  go [] q
