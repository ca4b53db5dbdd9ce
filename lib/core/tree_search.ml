module Int_math = Rtnet_util.Int_math

type outcome = Empty | Isolated of int | Split | Leaf_collision of int list

type step = { lo : int; width : int; actives : int list; outcome : outcome }

type trace = step list

let run ~m ~t ~active =
  if m < 2 then invalid_arg "Tree_search.run: m < 2";
  if t < 1 || not (Int_math.is_power_of m t) then
    invalid_arg "Tree_search.run: t must be a power of m";
  List.iter
    (fun leaf ->
      if leaf < 0 || leaf >= t then invalid_arg "Tree_search.run: leaf out of range")
    active;
  let active = List.sort compare active in
  (* Depth-first, leftmost subtree first: a stack of intervals to
     probe.  Each probe consumes the interval on top. *)
  let rec probe acc = function
    | [] -> List.rev acc
    | (lo, width) :: stack ->
      let inside = List.filter (fun l -> l >= lo && l < lo + width) active in
      let step outcome = { lo; width; actives = inside; outcome } in
      (match inside with
      | [] -> probe (step Empty :: acc) stack
      | [ leaf ] -> probe (step (Isolated leaf) :: acc) stack
      | _ :: _ :: _ when width = 1 ->
        probe (step (Leaf_collision inside) :: acc) stack
      | _ :: _ :: _ ->
        let child = width / m in
        let children = List.init m (fun i -> (lo + (i * child), child)) in
        probe (step Split :: acc) (children @ stack))
  in
  probe [] [ (0, t) ]

let cost tr =
  List.fold_left
    (fun acc s ->
      match s.outcome with
      | Empty | Split | Leaf_collision _ -> acc + 1
      | Isolated _ -> acc)
    0 tr

let isolated tr =
  List.filter_map
    (fun s -> match s.outcome with Isolated l -> Some l | Empty | Split | Leaf_collision _ -> None)
    tr

let run_arbitrated ~m ~t ~active =
  if m < 2 then invalid_arg "Tree_search.run_arbitrated: m < 2";
  if t < 1 || not (Int_math.is_power_of m t) then
    invalid_arg "Tree_search.run_arbitrated: t must be a power of m";
  let leaves = List.map fst active in
  if List.length (List.sort_uniq compare leaves) <> List.length leaves then
    invalid_arg "Tree_search.run_arbitrated: duplicate leaves";
  List.iter
    (fun (leaf, _) ->
      if leaf < 0 || leaf >= t then
        invalid_arg "Tree_search.run_arbitrated: leaf out of range")
    active;
  let remaining = Hashtbl.create 16 in
  List.iter (fun (leaf, key) -> Hashtbl.replace remaining leaf key) active;
  let inside lo w =
    Hashtbl.fold
      (fun leaf key acc -> if leaf >= lo && leaf < lo + w then (key, leaf) :: acc else acc)
      remaining []
  in
  let rec probe cost order = function
    | [] -> (cost, List.rev order)
    | (lo, w) :: stack -> (
      match inside lo w with
      | [] -> probe (cost + 1) order stack
      | [ (_, leaf) ] ->
        Hashtbl.remove remaining leaf;
        probe cost (leaf :: order) stack
      | several ->
        (* Collision slot: the smallest key wins and is carried. *)
        let _, winner = List.fold_left min (List.hd several) (List.tl several) in
        Hashtbl.remove remaining winner;
        let child = w / m in
        let children = List.init m (fun i -> (lo + (i * child), child)) in
        probe (cost + 1) (winner :: order) (children @ stack))
  in
  probe 0 [] [ (0, t) ]
