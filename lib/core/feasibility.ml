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

(* The Section 4.3 arithmetic, written once: {!sums} adds the terms up
   over an instance, {!Rows} keeps running sums of them, and both price
   a class with [bound_of_sums].  Every function is inlined into its loops, so
   a term costs no call.

   [cdiv a b] is ⌈a/b⌉ for a ≥ 0 and b > 0: a window is positive in
   every instance ({!Message.cls_validate}) and every admitted flow. *)
let[@inline] cdiv a b = (a + b - 1) / b

(* Class [c]'s share of r(M): ⌈d(M)/w(c)⌉·a(c) when [c] belongs to M's
   source ([same]), 0 otherwise. *)
let[@inline] rank_term ~same ~dm ~wc ~ac = if same then cdiv dm wc * ac else 0

(* Class [c]'s share of u(M), with [wire] = l'(M):
   max(0, ⌈(d(M)+d(c)−l'(M))/w(c)⌉)·a(c).  A non-positive numerator
   contributes nothing. *)
let[@inline] interference_term ~dm ~wire ~dc ~wc ~ac =
  let n = dm + dc - wire in
  if n > 0 then cdiv n wc * ac else 0

(* v(M) = 1 + ⌊r(M)/ν_i⌋; r(M) ≥ 0, since M's own term is at least 1. *)
let[@inline] static_trees ~nu r = 1 + (r / nu)

(* S in slots.  Destructive medium: S₁ + S₂, the static searches [s1]
   and ⌈v/2⌉ time-tree searches of ξ₂ slots each.  Arbitrated medium
   with the re-probing discipline the automaton uses: every collision
   slot carries the smallest-keyed frame, so each of the u(M)
   interfering messages costs at most one collision slot, and the only
   other costly slots are the empty epoch probes — bounded by the
   paper's own epoch count ⌈v/2⌉ (Section 4.3's S₂ accounting). *)
let[@inline] search_slots ~arbitrated ~xi2 ~s1 ~u ~v =
  if arbitrated then float_of_int (u + cdiv v 2)
  else s1 ~u ~v +. float_of_int (cdiv v 2 * xi2)

(* B_DDCR in bit-times from the sums and S: the transmission time [tx]
   of the u(M) messages plus [x] per search slot. *)
let[@inline] latency ~x ~tx slots = float_of_int tx +. (x *. slots)

let[@inline] bound_of_sums ~arbitrated ~x ~xi2 ~s1 ~tx ~u ~v =
  latency ~x ~tx (search_slots ~arbitrated ~xi2 ~s1 ~u ~v)

(* The three sums for class [m], in one walk over the instance's
   classes ([wires] from {!wires}):
   - [r] = r(M) = Σ_{m∈MSG_i} ⌈d(M)/w(m)⌉·a(m) − 1;
   - [u] = u(M) = Σ_{m∈MSG} max(0, ⌈(d(M)+d(m)−l'(M))/w(m)⌉)·a(m);
   - [tx], the transmission time of those u(M) messages: each class's
     share of u(M) weighted by its l'(m).
   This walk is the from-scratch analysis the admission engine's
   self-check compares its running sums ({!Rows}) with, so it shares
   the terms with them but no loop. *)
type sums = { r : int; u : int; tx : int }

let sums inst wires m =
  let classes = inst.Instance.classes in
  let wire = Phy.tx_bits inst.Instance.phy m.Message.cls_bits in
  let dm = m.Message.cls_deadline and sm = m.Message.cls_source in
  let r = ref (-1) and u = ref 0 and tx = ref 0 in
  for i = 0 to Array.length classes - 1 do
    let c, _ = classes.(i) in
    let wc = c.Message.cls_window and ac = c.Message.cls_burst in
    let du = interference_term ~dm ~wire ~dc:c.Message.cls_deadline ~wc ~ac in
    u := !u + du;
    tx := !tx + (du * wires.(i));
    r := !r + rank_term ~same:(c.Message.cls_source = sm) ~dm ~wc ~ac
  done;
  { r = !r; u = !u; tx = !tx }

let sums_of inst m_cls =
  require_member inst m_cls;
  sums inst (wires inst) m_cls

let rank_bound inst m_cls = (sums_of inst m_cls).r
let interference_bound inst m_cls = (sums_of inst m_cls).u

let v_of p m_cls ~r =
  static_trees ~nu:(Ddcr_params.nu p m_cls.Message.cls_source) r

let static_trees_bound p inst m_cls = v_of p m_cls ~r:(rank_bound inst m_cls)

(* S₁ straight from the ξ̃ machinery, and ξ₂ = Xi.eq5(m, F). *)
let multi_tree p ~u ~v =
  Multi_tree.bound ~m:p.Ddcr_params.static_m ~t:p.Ddcr_params.static_leaves
    ~u ~v

let xi2 p = Xi.eq5 ~m:p.Ddcr_params.time_m ~t:p.Ddcr_params.time_leaves
let slot phy = float_of_int phy.Phy.slot_bits

(* The paper bound [b] plus the per-realisation overheads: the
   open-attempt/collision slots bracketing each epoch and one maximal
   frame of head-of-medium blocking (plus the bursting budget). *)
let impl p ~x ~max_wire ~v b =
  b
  +. (2. *. x *. float_of_int (cdiv v 2 + 1))
  +. float_of_int (max_wire + p.Ddcr_params.burst_bits)

(* One class's S on a destructive medium, and its B_DDCR under the
   analysis for [arbitrated]. *)
let search_slot_bound p inst m_cls =
  let s = sums_of inst m_cls in
  search_slots ~arbitrated:false ~xi2:(xi2 p) ~s1:(multi_tree p) ~u:s.u
    ~v:(v_of p m_cls ~r:s.r)

let class_bound ~arbitrated p inst m_cls =
  let s = sums_of inst m_cls in
  bound_of_sums ~arbitrated ~x:(slot inst.Instance.phy) ~xi2:(xi2 p)
    ~s1:(multi_tree p) ~tx:s.tx ~u:s.u ~v:(v_of p m_cls ~r:s.r)

let latency_bound = class_bound ~arbitrated:false
let latency_bound_arbitrated = class_bound ~arbitrated:true

let latency_bound_impl p inst m_cls =
  require_member inst m_cls;
  let wires = wires inst in
  let s = sums inst wires m_cls in
  let v = v_of p m_cls ~r:s.r in
  let x = slot inst.Instance.phy in
  impl p ~x ~max_wire:(Array.fold_left Int.max 0 wires) ~v
    (bound_of_sums ~arbitrated:false ~x ~xi2:(xi2 p) ~s1:(multi_tree p)
       ~tx:s.tx ~u:s.u ~v)

(* The incremental analysis: one row per admitted class, its running
   sums and its cached B_DDCR, struct-of-arrays so that the per-row
   loops read flat int arrays and store the bound unboxed.  Rows
   [0, n) are live; a removal moves the last row into the hole. *)
module Rows = struct
  type t = {
    params : Ddcr_params.t;
    phy : Phy.t;
    arbitrated : bool;
    x : float;  (* slot time *)
    xi2 : int;  (* ξ₂ = Xi.eq5(m, F), a constant of the parameters *)
    mutable n : int;
    (* the class *)
    mutable deadline : int array;
    mutable window : int array;
    mutable burst : int array;
    mutable source : int array;
    mutable wire : int array;  (* l'(M) *)
    mutable nu : int array;  (* ν of the source *)
    (* its running sums *)
    mutable r : int array;
    mutable u : int array;
    mutable tx : int array;
    mutable dirty : bool array;  (* [bound] is stale *)
    mutable bound : Float.Array.t;  (* B_DDCR as of the last refresh *)
  }

  let create params phy =
    {
      params;
      phy;
      arbitrated = phy.Phy.semantics = Phy.Arbitration;
      x = slot phy;
      xi2 = xi2 params;
      n = 0;
      deadline = [||];
      window = [||];
      burst = [||];
      source = [||];
      wire = [||];
      nu = [||];
      r = [||];
      u = [||];
      tx = [||];
      dirty = [||];
      bound = Float.Array.create 0;
    }

  let length t = t.n
  let r t i = t.r.(i)
  let u t i = t.u.(i)
  let v t i = static_trees ~nu:t.nu.(i) t.r.(i)
  let bounds t = t.bound

  (* Double every column, keeping rows [0, n). *)
  let grow t =
    let cap = max 16 (2 * t.n) in
    let col a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.deadline <- col t.deadline 0;
    t.window <- col t.window 0;
    t.burst <- col t.burst 0;
    t.source <- col t.source 0;
    t.wire <- col t.wire 0;
    t.nu <- col t.nu 0;
    t.r <- col t.r 0;
    t.u <- col t.u 0;
    t.tx <- col t.tx 0;
    t.dirty <- col t.dirty false;
    let bound = Float.Array.create cap in
    Float.Array.blit t.bound 0 bound 0 t.n;
    t.bound <- bound

  (* Row [last]'s cell of one column moves to row [i]. *)
  let[@inline] move col ~i ~last =
    Array.unsafe_set col i (Array.unsafe_get col last)

  (* Add [sign] times the terms of the class (d, w, a, src, l') to row
     [i]'s sums; the row turns dirty if they moved. *)
  let[@inline] shift t ~sign i ~d ~w ~a ~src ~wire =
    let dm = Array.unsafe_get t.deadline i in
    let du =
      sign
      * interference_term ~dm ~wire:(Array.unsafe_get t.wire i) ~dc:d ~wc:w
          ~ac:a
    in
    let dr =
      sign
      * rank_term ~same:(Array.unsafe_get t.source i = src) ~dm ~wc:w ~ac:a
    in
    Array.unsafe_set t.u i (Array.unsafe_get t.u i + du);
    Array.unsafe_set t.tx i (Array.unsafe_get t.tx i + (du * wire));
    Array.unsafe_set t.r i (Array.unsafe_get t.r i + dr);
    if du <> 0 || dr <> 0 then Array.unsafe_set t.dirty i true

  let attach t c =
    if t.n = Array.length t.deadline then grow t;
    let j = t.n in
    let d = c.Message.cls_deadline and w = c.Message.cls_window in
    let a = c.Message.cls_burst and src = c.Message.cls_source in
    let wire = Phy.tx_bits t.phy c.Message.cls_bits in
    t.deadline.(j) <- d;
    t.window.(j) <- w;
    t.burst.(j) <- a;
    t.source.(j) <- src;
    t.wire.(j) <- wire;
    t.nu.(j) <- Ddcr_params.nu t.params src;
    (* The class's own terms, then each resident's terms into it and
       its terms into each resident. *)
    let own = interference_term ~dm:d ~wire ~dc:d ~wc:w ~ac:a in
    let r = ref (rank_term ~same:true ~dm:d ~wc:w ~ac:a - 1)
    and u = ref own
    and tx = ref (own * wire) in
    for i = 0 to j - 1 do
      let wi = Array.unsafe_get t.window i in
      let ai = Array.unsafe_get t.burst i in
      let du =
        interference_term ~dm:d ~wire ~dc:(Array.unsafe_get t.deadline i)
          ~wc:wi ~ac:ai
      in
      u := !u + du;
      tx := !tx + (du * Array.unsafe_get t.wire i);
      r :=
        !r
        + rank_term ~same:(Array.unsafe_get t.source i = src) ~dm:d ~wc:wi
            ~ac:ai;
      shift t ~sign:1 i ~d ~w ~a ~src ~wire
    done;
    t.r.(j) <- !r;
    t.u.(j) <- !u;
    t.tx.(j) <- !tx;
    t.dirty.(j) <- true;
    t.n <- j + 1;
    j

  (* Swap-remove: the last row, dirty flag and bound included, takes
     row [i]'s place; then [i]'s terms leave every remaining row. *)
  let detach t i =
    let d = t.deadline.(i) and w = t.window.(i) and a = t.burst.(i) in
    let src = t.source.(i) and wire = t.wire.(i) in
    let last = t.n - 1 in
    move t.deadline ~i ~last;
    move t.window ~i ~last;
    move t.burst ~i ~last;
    move t.source ~i ~last;
    move t.wire ~i ~last;
    move t.nu ~i ~last;
    move t.r ~i ~last;
    move t.u ~i ~last;
    move t.tx ~i ~last;
    move t.dirty ~i ~last;
    Float.Array.set t.bound i (Float.Array.get t.bound last);
    t.n <- last;
    for j = 0 to last - 1 do
      shift t ~sign:(-1) j ~d ~w ~a ~src ~wire
    done

  let refresh t ~s1 =
    let arbitrated = t.arbitrated and x = t.x and xi2 = t.xi2 in
    for i = 0 to t.n - 1 do
      if Array.unsafe_get t.dirty i then begin
        let v =
          static_trees ~nu:(Array.unsafe_get t.nu i) (Array.unsafe_get t.r i)
        in
        Float.Array.unsafe_set t.bound i
          (bound_of_sums ~arbitrated ~x ~xi2 ~s1 ~tx:(Array.unsafe_get t.tx i)
             ~u:(Array.unsafe_get t.u i) ~v);
        Array.unsafe_set t.dirty i false
      end
    done
end

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
  let xi2 = xi2 p and s1 = multi_tree p and x = slot inst.Instance.phy in
  let max_wire = Array.fold_left Int.max 0 wires in
  (* Per class: one walk for the sums and one Multi_tree call.  Every
     float is the expression the per-class functions evaluate, in the
     same order, so each field is bit-identical to theirs.  The
     realisation overheads are priced on the paper's bound, which an
     arbitrated medium needs for nothing else. *)
  let row (c, _) rows =
    let s = sums inst wires c in
    let v = v_of p c ~r:s.r in
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
