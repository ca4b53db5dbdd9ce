module Int_math = Rtnet_util.Int_math

let check_tree ~m ~t =
  if m < 2 then invalid_arg "Xi: branching degree m must be >= 2";
  if t < m || not (Int_math.is_power_of m t) then
    invalid_arg "Xi: t must be a positive power of m, t >= m"

let check_k ~t ~k =
  if k < 0 || k > t then invalid_arg "Xi: k out of [0, t]"

(* ⌊log_m (num/den)⌋ for positive integers — exact even when the
   quotient is below 1 (negative result): the largest integer e with
   den·m^e <= num. *)
let log_floor_ratio m num den =
  if num <= 0 || den <= 0 then invalid_arg "Xi.log_floor_ratio";
  if den <= num then begin
    let rec largest e p = if p * m <= num then largest (e + 1) (p * m) else e in
    largest 0 den
  end
  else begin
    (* e < 0: the smallest j >= 1 with num·m^j >= den gives e = −j. *)
    let rec smallest j p = if num * p >= den then j else smallest (j + 1) (p * m) in
    -(smallest 1 m)
  end

let exact ~m ~t ~k =
  check_tree ~m ~t;
  check_k ~t ~k;
  if k = 0 then 1
  else if k = 1 then 0
  else begin
    let p = k / 2 in
    let mp = m * p in
    let term1 = (Int_math.pow m (Int_math.log_ceil m mp) - 1) / (m - 1) in
    let term2 = mp * log_floor_ratio m t mp in
    term1 + term2 - (k - mp)
  end

(* Divide-and-conquer recursion, Eq. 2-4. *)
let table ~m ~t =
  check_tree ~m ~t;
  (* Base, t = m, from Eq. 1 with unit subtrees: ξ_k^m = 1 + m − k for
     k >= 2 (reproduces Eq. 4). *)
  let base =
    Array.init (m + 1) (fun k ->
        if k = 0 then 1 else if k = 1 then 0 else 1 + m - k)
  in
  let step prev t_next =
    let t_child = t_next / m in
    let next = Array.make (t_next + 1) 0 in
    next.(0) <- 1;
    next.(1) <- 0;
    for p = 1 to t_next / 2 do
      let clamped = min p t_child in
      let sum = ref 1 in
      for i = 0 to m - 1 do
        sum := !sum + prev.(2 * ((clamped + i) / m))
      done;
      let even = !sum - (2 * max 0 (p - t_child)) in
      next.(2 * p) <- even;
      if (2 * p) + 1 <= t_next then next.((2 * p) + 1) <- even - 1
    done;
    next
  in
  let rec go cur size = if size = t then cur else go (step cur (size * m)) (size * m) in
  go base m

(* Defining recursion Eq. 1 solved by max-plus convolution DP. *)
let of_recursion ~m ~t ~k =
  check_tree ~m ~t;
  check_k ~t ~k;
  let unit_tree = [| 1; 0 |] in
  let step child t_next =
    let t_child = t_next / m in
    (* g.(s) = max over compositions s = k_1 + ... + k_j of Σ ξ_{k_i}. *)
    let g = ref (Array.copy child) in
    for j = 2 to m do
      let reach = j * t_child in
      let g' = Array.make (reach + 1) min_int in
      for s = 0 to reach do
        for q = max 0 (s - ((j - 1) * t_child)) to min t_child s do
          let v = !g.(s - q) + child.(q) in
          if v > g'.(s) then g'.(s) <- v
        done
      done;
      g := g'
    done;
    Array.init (t_next + 1) (fun k ->
        if k = 0 then 1 else if k = 1 then 0 else 1 + !g.(k))
  in
  let rec go cur size = if size = t then cur else go (step cur (size * m)) (size * m) in
  (go unit_tree 1).(k)

let eq5 ~m ~t =
  check_tree ~m ~t;
  (m * Int_math.log_floor m t) - 1

let eq7 ~m ~t =
  check_tree ~m ~t;
  (t - 1) / (m - 1)

let eq6 ~m ~t =
  check_tree ~m ~t;
  eq7 ~m ~t + (t - (2 * t / m))

let derivative ~m ~t ~p =
  check_tree ~m ~t;
  if t = m then invalid_arg "Xi.derivative: needs n >= 2";
  if p < 1 || p > (t / 2) - 1 then invalid_arg "Xi.derivative: p out of range";
  (m * (Int_math.log_floor m t - Int_math.log_floor m (m * p))) - 2

let linear_tail ~m ~t ~k =
  check_tree ~m ~t;
  if k < 2 * t / m || k > t then
    invalid_arg "Xi.linear_tail: k out of [2t/m, t]";
  (((m * t) - 1) / (m - 1)) - k

let tilde ~m ~t k =
  check_tree ~m ~t;
  if k <= 0. || k > float_of_int t then invalid_arg "Xi.tilde: k out of (0, t]";
  let fm = float_of_int m and ft = float_of_int t in
  let half = k /. 2. in
  ((fm *. half) -. 1.) /. (fm -. 1.)
  +. (fm *. half *. (log (2. *. ft /. k) /. log fm))
  -. k

let tilde_is_exact_at ~m ~t ~k =
  check_tree ~m ~t;
  check_k ~t ~k;
  k >= 2 && k mod 2 = 0 && Int_math.is_power_of m (k / 2)
  && k / 2 <= t / 2 (* i <= ⌊log_m(t/2)⌋ means 2·m^i <= ... m^i <= t/2 *)

let max_gap ~m ~t =
  check_tree ~m ~t;
  let xs = table ~m ~t in
  let hi = 2 * t / m in
  let rec go k best =
    if k > hi then best
    else begin
      let gap = tilde ~m ~t (float_of_int k) -. float_of_int xs.(k) in
      go (k + 2) (max best gap)
    end
  in
  go 2 0.

let gap_bound ~m =
  if m < 2 then invalid_arg "Xi.gap_bound: m < 2";
  let fm = float_of_int m in
  (Float.pow fm (1. /. (fm -. 1.)) /. (Float.exp 1. *. log fm))
  -. (1. /. (fm -. 1.))

let gap_bound_universal =
  (sqrt (sqrt 3.) /. (2. *. Float.exp 1. *. log 3.)) -. 0.125

(* Expected search cost over uniformly random k-subsets of leaves.

   A node is probed iff every proper ancestor holds >= 2 active leaves;
   since subtree counts only shrink going down, that is equivalent to
   its parent holding >= 2.  A probe costs one slot unless it isolates
   exactly one leaf.  With (count(node), count(parent)) jointly
   hypergeometric, the expectation is a closed sum; all nodes of one
   depth share it by symmetry. *)
let expected ~m ~t ~k =
  check_tree ~m ~t;
  check_k ~t ~k;
  if k = 0 then 1.
  else if k = 1 then 0.
  else begin
    (* ln C(n, r) via a ln-factorial table. *)
    let lnfact = Array.make (t + 1) 0. in
    for i = 2 to t do
      lnfact.(i) <- lnfact.(i - 1) +. log (float_of_int i)
    done;
    let ln_choose n r =
      if r < 0 || r > n then neg_infinity
      else lnfact.(n) -. lnfact.(r) -. lnfact.(n - r)
    in
    let ln_total = ln_choose t k in
    (* Root: probed always, and k >= 2 means a collision slot. *)
    let total = ref 1. in
    let s = ref (t / m) in
    while !s >= 1 do
      let size = !s in
      let parent = size * m in
      let nodes = float_of_int (t / size) in
      (* P(count(node) = j and count(parent) = J). *)
      let p = ref 0. in
      for capital_j = 2 to min k parent do
        for j = 0 to min capital_j size do
          if j <> 1 && k - capital_j <= t - parent then begin
            let lnp =
              ln_choose size j
              +. ln_choose (parent - size) (capital_j - j)
              +. ln_choose (t - parent) (k - capital_j)
              -. ln_total
            in
            if lnp > neg_infinity then p := !p +. exp lnp
          end
        done
      done;
      total := !total +. (nodes *. !p);
      s := size / m
    done;
    !total
  end

let expected_efficiency ~m ~t ~k ~frame_slots =
  if frame_slots <= 0. then invalid_arg "Xi.expected_efficiency: frame_slots";
  if k < 1 then invalid_arg "Xi.expected_efficiency: k < 1";
  let payload = float_of_int k *. frame_slots in
  payload /. (payload +. expected ~m ~t ~k)

(* Witness subsets: recover one argmax composition at every internal
   node of the defining recursion, then place leaves accordingly. *)
let worst_case_subset ~m ~t ~k =
  check_tree ~m ~t;
  check_k ~t ~k;
  (* Memoised ξ per subtree size (sizes are m^j, reuse [table]). *)
  let tables = Hashtbl.create 8 in
  let xi_of size =
    match Hashtbl.find_opt tables size with
    | Some a -> a
    | None ->
      let a = if size = 1 then [| 1; 0 |] else table ~m ~t:size in
      Hashtbl.add tables size a;
      a
  in
  (* Split k into m parts (k_1..k_m), each <= child, maximising the sum
     of child ξ values: DP with backpointers. *)
  let split size k =
    let child = size / m in
    let xs = xi_of child in
    let neg = min_int / 2 in
    let best = Array.make_matrix (m + 1) (k + 1) neg in
    let choice = Array.make_matrix (m + 1) (k + 1) (-1) in
    best.(0).(0) <- 0;
    for j = 1 to m do
      for s = 0 to min k (j * child) do
        for q = max 0 (s - ((j - 1) * child)) to min child s do
          if best.(j - 1).(s - q) > neg then begin
            let v = best.(j - 1).(s - q) + xs.(q) in
            if v > best.(j).(s) then begin
              best.(j).(s) <- v;
              choice.(j).(s) <- q
            end
          end
        done
      done
    done;
    let rec back j s acc =
      if j = 0 then acc
      else begin
        let q = choice.(j).(s) in
        back (j - 1) (s - q) (q :: acc)
      end
    in
    back m k []
  in
  let rec place size offset k acc =
    if k = 0 then acc
    else if size = 1 then offset :: acc
    else if k = 1 then offset :: acc (* leftmost leaf: cost 0 regardless *)
    else begin
      let parts = split size k in
      let child = size / m in
      let _, acc =
        List.fold_left
          (fun (off, acc) ki -> (off + child, place child off ki acc))
          (offset, acc) parts
      in
      acc
    end
  in
  List.sort compare (place t 0 k [])

let total_over_ks ~m ~t =
  let xs = table ~m ~t in
  let sum = ref 0 in
  for k = 2 to t do
    sum := !sum + xs.(k)
  done;
  !sum

let best_branching ~min_leaves ~candidates =
  if min_leaves < 1 then invalid_arg "Xi.best_branching: min_leaves < 1";
  match candidates with
  | [] -> invalid_arg "Xi.best_branching: no candidates"
  | _ :: _ ->
    let score m =
      let rec tree size = if size >= min_leaves then size else tree (size * m) in
      let t = tree m in
      float_of_int (total_over_ks ~m ~t) /. float_of_int t
    in
    List.fold_left
      (fun best m -> if score m < score best then m else best)
      (List.hd candidates) candidates
