(* Eq. 11 extended to a real tree size [t]: Eq. 19's "tree" has [t·v]
   leaves, which is not a power of [m]. *)
let tilde_real ~m ~t ~k =
  if m < 2 then invalid_arg "Multi_tree.tilde_real: m < 2";
  if k <= 0. || t <= 0. then invalid_arg "Multi_tree.tilde_real: domain";
  let fm = float_of_int m in
  let half = k /. 2. in
  ((fm *. half) -. 1.) /. (fm -. 1.)
  +. (fm *. half *. (log (2. *. t /. k) /. log fm))
  -. k

let bound ~m ~t ~u ~v =
  if u < 0 then invalid_arg "Multi_tree.bound: u < 0";
  if v < 1 then invalid_arg "Multi_tree.bound: v < 1";
  if u = 0 then 0.
  else begin
    (* Fold any per-tree overflow into extra trees, then clamp the
       equal share below by 2 (ξ̃ is increasing there, so this only
       raises the bound). *)
    let v = max v (Rtnet_util.Int_math.cdiv u t) in
    let share = max 2. (float_of_int u /. float_of_int v) in
    float_of_int v *. tilde_real ~m ~t:(float_of_int t) ~k:share
  end

let bound_eq19 ~m ~t ~u ~v =
  if u < 2 * v || u > t * v then
    invalid_arg "Multi_tree.bound_eq19: u out of [2v, tv]";
  tilde_real ~m ~t:(float_of_int (t * v)) ~k:(float_of_int u)
  -. (float_of_int (v - 1) /. float_of_int (m - 1))

let worst_exact_of ~xi ~t ~u ~v =
  if v < 1 then invalid_arg "Multi_tree.worst_exact: v < 1";
  if u < 2 * v || u > t * v then
    invalid_arg "Multi_tree.worst_exact: u out of [2v, tv]";
  let xs = xi in
  let neg = min_int / 2 in
  (* best.(s) after j trees = max Σ ξ over compositions of s. *)
  let best = ref (Array.make (u + 1) neg) in
  !best.(0) <- 0;
  for _ = 1 to v do
    let next = Array.make (u + 1) neg in
    for s = 0 to u do
      if !best.(s) > neg then
        for k = 2 to min t (u - s) do
          let value = !best.(s) + xs.(k) in
          if value > next.(s + k) then next.(s + k) <- value
        done
    done;
    best := next
  done;
  !best.(u)

let worst_exact ~m ~t ~u ~v = worst_exact_of ~xi:(Xi.table ~m ~t) ~t ~u ~v
