module Int_math = Rtnet_util.Int_math
module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Phy = Rtnet_channel.Phy
module Headroom = Rtnet_telemetry.Headroom

let require_member inst m_cls =
  let id = m_cls.Message.cls_id in
  if
    not
      (Array.exists (fun (c, _) -> c.Message.cls_id = id) inst.Instance.classes)
  then invalid_arg "Feasibility: class does not belong to the instance"

(* On-wire length l'(m) of every class, in the instance's id order. *)
let wires inst =
  Array.map
    (fun (c, _) -> Phy.tx_bits inst.Instance.phy c.Message.cls_bits)
    inst.Instance.classes

(* The per-pair terms of the Section 4.3 sums for class [m], with
   [wire] = l'(M): class [c]'s share of r(M) and of u(M).  This is the
   only place they are written; [sums] adds them up over an instance,
   the admission engine keeps running sums of them.  Inlined: [check]
   runs them n² times. *)
let[@inline] rank_term m c =
  if c.Message.cls_source = m.Message.cls_source then
    Int_math.cdiv m.Message.cls_deadline c.Message.cls_window
    * c.Message.cls_burst
  else 0

let[@inline] interference_term ~wire m c =
  Int.max 0
    (Int_math.cdiv
       (m.Message.cls_deadline + c.Message.cls_deadline - wire)
       c.Message.cls_window)
  * c.Message.cls_burst

(* The three sums for class [m], in one walk over the instance's
   classes ([wires] from {!wires}):
   - [r] = r(M) = Σ_{m∈MSG_i} ⌈d(M)/w(m)⌉·a(m) − 1;
   - [u] = u(M) = Σ_{m∈MSG} max(0, ⌈(d(M)+d(m)−l'(M))/w(m)⌉)·a(m);
   - [tx], the transmission time of those u(M) messages: each class's
     share of u(M) weighted by its l'(m). *)
type sums = { r : int; u : int; tx : int }

let sums inst wires m =
  let classes = inst.Instance.classes in
  let wire = Phy.tx_bits inst.Instance.phy m.Message.cls_bits in
  let r = ref (-1) and u = ref 0 and tx = ref 0 in
  for i = 0 to Array.length classes - 1 do
    let c, _ = classes.(i) in
    let du = interference_term ~wire m c in
    u := !u + du;
    tx := !tx + (du * wires.(i));
    r := !r + rank_term m c
  done;
  { r = !r; u = !u; tx = !tx }

let sums_of inst m_cls =
  require_member inst m_cls;
  sums inst (wires inst) m_cls

let rank_bound inst m_cls = (sums_of inst m_cls).r
let interference_bound inst m_cls = (sums_of inst m_cls).u

(* v(M) = 1 + ⌊r(M)/ν_i⌋. *)
let static_trees p m_cls ~r =
  1 + (r / Ddcr_params.nu p m_cls.Message.cls_source)

let static_trees_bound p inst m_cls =
  static_trees p m_cls ~r:(rank_bound inst m_cls)

(* S₁ straight from the ξ̃ machinery, and ξ₂ = Xi.eq5(m, F). *)
let multi_tree p ~u ~v =
  Multi_tree.bound ~m:p.Ddcr_params.static_m ~t:p.Ddcr_params.static_leaves
    ~u ~v

let xi2 p = Xi.eq5 ~m:p.Ddcr_params.time_m ~t:p.Ddcr_params.time_leaves

(* S in slots.  Destructive medium: S₁ + S₂, the static searches [s1]
   and ⌈v/2⌉ time-tree searches of ξ₂ slots each.  Arbitrated medium
   with the re-probing discipline the automaton uses: every collision
   slot carries the smallest-keyed frame, so each of the u(M)
   interfering messages costs at most one collision slot, and the only
   other costly slots are the empty epoch probes — bounded by the
   paper's own epoch count ⌈v/2⌉ (Section 4.3's S₂ accounting).
   [search_slots] and [latency] are inlined so that [bound_of_sums],
   which the admission engine calls per refreshed class, boxes one
   float, not two. *)
let[@inline] search_slots ~arbitrated ~xi2 ~s1 ~u ~v =
  if arbitrated then float_of_int (u + Int_math.cdiv v 2)
  else s1 ~u ~v +. float_of_int (Int_math.cdiv v 2 * xi2)

let slot inst = float_of_int inst.Instance.phy.Phy.slot_bits
let[@inline] latency ~x ~tx slots = float_of_int tx +. (x *. slots)

let bound_of_sums ~arbitrated ~x ~xi2 ~s1 ~tx ~u ~v =
  latency ~x ~tx (search_slots ~arbitrated ~xi2 ~s1 ~u ~v)

(* The paper bound [b] plus the per-realisation overheads: the
   open-attempt/collision slots bracketing each epoch and one maximal
   frame of head-of-medium blocking (plus the bursting budget). *)
let impl p ~x ~max_wire ~v b =
  b
  +. (2. *. x *. float_of_int (Int_math.cdiv v 2 + 1))
  +. float_of_int (max_wire + p.Ddcr_params.burst_bits)

(* One class's S on a destructive medium, and its B_DDCR under the
   analysis for [arbitrated]. *)
let search_slot_bound p inst m_cls =
  let s = sums_of inst m_cls in
  search_slots ~arbitrated:false ~xi2:(xi2 p) ~s1:(multi_tree p) ~u:s.u
    ~v:(static_trees p m_cls ~r:s.r)

let class_bound ~arbitrated p inst m_cls =
  let s = sums_of inst m_cls in
  bound_of_sums ~arbitrated ~x:(slot inst) ~xi2:(xi2 p) ~s1:(multi_tree p)
    ~tx:s.tx ~u:s.u ~v:(static_trees p m_cls ~r:s.r)

let latency_bound = class_bound ~arbitrated:false
let latency_bound_arbitrated = class_bound ~arbitrated:true

let latency_bound_impl p inst m_cls =
  require_member inst m_cls;
  let wires = wires inst in
  let s = sums inst wires m_cls in
  let v = static_trees p m_cls ~r:s.r in
  let x = slot inst in
  impl p ~x ~max_wire:(Array.fold_left Int.max 0 wires) ~v
    (bound_of_sums ~arbitrated:false ~x ~xi2:(xi2 p) ~s1:(multi_tree p)
       ~tx:s.tx ~u:s.u ~v)

type class_report = {
  cr_cls : Message.cls;
  cr_r : int;
  cr_u : int;
  cr_v : int;
  cr_search_slots : float;
  cr_bound : float;
  cr_bound_impl : float;
  cr_feasible : bool;
}

type report = {
  per_class : class_report list;
  feasible : bool;
  worst_margin : float;
}

let check p inst =
  (match Ddcr_params.validate p ~num_sources:inst.Instance.num_sources with
  | Ok () -> ()
  | Error e -> invalid_arg ("Feasibility.check: " ^ e));
  (* The medium decides which analysis applies: destructive searches
     are bounded by the ξ machinery, wired-OR arbitration by the
     re-probe accounting. *)
  let arbitrated =
    inst.Instance.phy.Phy.semantics = Phy.Arbitration
  in
  let wires = wires inst in
  let xi2 = xi2 p and s1 = multi_tree p and x = slot inst in
  let max_wire = Array.fold_left Int.max 0 wires in
  (* Per class: one walk for the sums and one Multi_tree call.  Every
     float is the expression the per-class functions evaluate, in the
     same order, so each field is bit-identical to theirs.  The
     realisation overheads are priced on the paper's bound, which an
     arbitrated medium needs for nothing else. *)
  let row (c, _) rows =
    let s = sums inst wires c in
    let v = static_trees p c ~r:s.r in
    let slots = search_slots ~arbitrated ~xi2 ~s1 ~u:s.u ~v in
    let bound = latency ~x ~tx:s.tx slots in
    let paper =
      if arbitrated then
        bound_of_sums ~arbitrated:false ~x ~xi2 ~s1 ~tx:s.tx ~u:s.u ~v
      else bound
    in
    {
      cr_cls = c;
      cr_r = s.r;
      cr_u = s.u;
      cr_v = v;
      cr_search_slots = slots;
      cr_bound = bound;
      cr_bound_impl = impl p ~x ~max_wire ~v paper -. paper +. bound;
      cr_feasible = bound <= float_of_int c.Message.cls_deadline;
    }
    :: rows
  in
  let per_class = Array.fold_right row inst.Instance.classes [] in
  let worst_margin =
    List.fold_left
      (fun acc cr ->
        max acc (cr.cr_bound /. float_of_int cr.cr_cls.Message.cls_deadline))
      0. per_class
  in
  {
    per_class;
    feasible = List.for_all (fun cr -> cr.cr_feasible) per_class;
    worst_margin;
  }

let headroom_bounds report =
  List.map
    (fun cr ->
      {
        Headroom.b_cls = cr.cr_cls.Message.cls_id;
        b_name = cr.cr_cls.Message.cls_name;
        b_deadline = cr.cr_cls.Message.cls_deadline;
        b_bound = cr.cr_bound;
        b_bound_impl = cr.cr_bound_impl;
      })
    report.per_class

let pp_report fmt r =
  Format.fprintf fmt "@[<v>%-12s %6s %6s %4s %10s %12s %12s %s@,"
    "class" "r(M)" "u(M)" "v(M)" "S slots" "B_DDCR" "d(M)" "ok";
  List.iter
    (fun cr ->
      Format.fprintf fmt "%-12s %6d %6d %4d %10.1f %12.0f %12d %s@,"
        cr.cr_cls.Message.cls_name cr.cr_r cr.cr_u cr.cr_v cr.cr_search_slots
        cr.cr_bound cr.cr_cls.Message.cls_deadline
        (if cr.cr_feasible then "yes" else "NO");
    )
    r.per_class;
  Format.fprintf fmt "feasible: %b (worst margin %.3f)@]" r.feasible
    r.worst_margin
