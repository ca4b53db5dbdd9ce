module Feasibility = Rtnet_core.Feasibility
module Ddcr_params = Rtnet_core.Ddcr_params
module Xi = Rtnet_core.Xi
module Multi_tree = Rtnet_core.Multi_tree
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Arrival = Rtnet_workload.Arrival
module Phy = Rtnet_channel.Phy
module Scenarios = Rtnet_workload.Scenarios

(* A small instance with hand-computable bounds.

   Medium: classic Ethernet (slot 512, overhead 160, min frame 512).
   Two sources; three classes:
     A: src 0, l = 2000 (l' = 2160), d = 200_000, a/w = 1/50_000
     B: src 0, l = 1000 (l' = 1160), d = 100_000, a/w = 2/100_000
     C: src 1, l = 4000 (l' = 4160), d = 300_000, a/w = 1/100_000 *)
let phy = Phy.classic_ethernet

let cls_a =
  {
    Message.cls_id = 0;
    cls_name = "A";
    cls_source = 0;
    cls_bits = 2000;
    cls_deadline = 200_000;
    cls_burst = 1;
    cls_window = 50_000;
  }

let cls_b =
  {
    Message.cls_id = 1;
    cls_name = "B";
    cls_source = 0;
    cls_bits = 1000;
    cls_deadline = 100_000;
    cls_burst = 2;
    cls_window = 100_000;
  }

let cls_c =
  {
    Message.cls_id = 2;
    cls_name = "C";
    cls_source = 1;
    cls_bits = 4000;
    cls_deadline = 300_000;
    cls_burst = 1;
    cls_window = 100_000;
  }

let law = Arrival.Periodic { offset = 0 }

let inst =
  Instance.create_exn ~name:"hand" ~phy ~num_sources:2
    [ (cls_a, law); (cls_b, law); (cls_c, law) ]

let params = Ddcr_params.default inst

let test_rank_bound_hand_computed () =
  (* r(A) = ⌈200000/50000⌉·1 + ⌈200000/100000⌉·2 − 1 = 4 + 4 − 1 = 7 *)
  Alcotest.(check int) "r(A)" 7 (Feasibility.rank_bound inst cls_a);
  (* r(B) = ⌈100000/50000⌉·1 + ⌈100000/100000⌉·2 − 1 = 2 + 2 − 1 = 3 *)
  Alcotest.(check int) "r(B)" 3 (Feasibility.rank_bound inst cls_b);
  (* r(C) = ⌈300000/100000⌉·1 − 1 = 2 (source 1 owns only C) *)
  Alcotest.(check int) "r(C)" 2 (Feasibility.rank_bound inst cls_c)

let test_interference_bound_hand_computed () =
  (* l'(A) = 2160.
     u(A) = ⌈(200000+200000−2160)/50000⌉·1
          + ⌈(200000+100000−2160)/100000⌉·2
          + ⌈(200000+300000−2160)/100000⌉·1
          = 8 + 6 + 5 = 19 *)
  Alcotest.(check int) "u(A)" 19 (Feasibility.interference_bound inst cls_a);
  (* l'(B) = 1160.
     u(B) = ⌈(100000+200000−1160)/50000⌉ + ⌈(100000+100000−1160)/100000⌉·2
          + ⌈(100000+300000−1160)/100000⌉ = 6 + 4 + 4 = 14 *)
  Alcotest.(check int) "u(B)" 14 (Feasibility.interference_bound inst cls_b)

let test_static_trees_bound () =
  (* v(M) = 1 + ⌊r(M)/ν_i⌋ with the ν the allocation actually grants. *)
  let nu0 = Ddcr_params.nu params 0 and nu1 = Ddcr_params.nu params 1 in
  Alcotest.(check int) "v(A)" (1 + (7 / nu0))
    (Feasibility.static_trees_bound params inst cls_a);
  Alcotest.(check int) "v(C)" (1 + (2 / nu1))
    (Feasibility.static_trees_bound params inst cls_c);
  let params4 = Ddcr_params.default ~indices_per_source:4 inst in
  let nu4 = Ddcr_params.nu params4 0 in
  Alcotest.(check bool) "at least the requested indices" true (nu4 >= 4);
  Alcotest.(check int) "v(A) with bigger nu" (1 + (7 / nu4))
    (Feasibility.static_trees_bound params4 inst cls_a)

let test_latency_bound_structure () =
  (* B = Σ counts·l' + x·(S1 + S2), assembled from the same pieces. *)
  let u = Feasibility.interference_bound inst cls_a in
  let v = Feasibility.static_trees_bound params inst cls_a in
  let s1 =
    Multi_tree.bound ~m:params.Ddcr_params.static_m
      ~t:params.Ddcr_params.static_leaves ~u ~v
  in
  let s2 =
    float_of_int
      (Rtnet_util.Int_math.cdiv v 2
      * Xi.eq5 ~m:params.Ddcr_params.time_m ~t:params.Ddcr_params.time_leaves)
  in
  Alcotest.(check (float 1e-6)) "S = S1 + S2" (s1 +. s2)
    (Feasibility.search_slot_bound params inst cls_a);
  let tx_time = (8 * 2160) + (6 * 1160) + (5 * 4160) in
  Alcotest.(check (float 1e-6)) "B assembled"
    (float_of_int tx_time +. (512. *. (s1 +. s2)))
    (Feasibility.latency_bound params inst cls_a)

let test_impl_bound_exceeds_paper_bound () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "impl > paper" true
        (Feasibility.latency_bound_impl params inst c
        > Feasibility.latency_bound params inst c))
    (Instance.classes inst)

let test_report_consistency () =
  let r = Feasibility.check params inst in
  Alcotest.(check int) "one row per class" 3 (List.length r.Feasibility.per_class);
  let recomputed =
    List.for_all
      (fun cr ->
        cr.Feasibility.cr_feasible
        = (cr.Feasibility.cr_bound
          <= float_of_int cr.Feasibility.cr_cls.Message.cls_deadline))
      r.Feasibility.per_class
  in
  Alcotest.(check bool) "per-class verdicts" true recomputed;
  Alcotest.(check bool) "global = conjunction" true
    (r.Feasibility.feasible
    = List.for_all (fun cr -> cr.Feasibility.cr_feasible) r.Feasibility.per_class)

let test_margin_improves_with_lower_density () =
  (* Stretching every arrival window divides the offered load: all
     interference counts shrink while deadlines stay fixed, so the
     worst margin must strictly improve (the default parameters are
     unaffected — they depend on deadlines and tree sizes only). *)
  let r1 = Feasibility.check params inst in
  let sparse = Instance.scale_windows inst 4.0 in
  let r2 = Feasibility.check params sparse in
  Alcotest.(check bool) "margin shrinks" true
    (r2.Feasibility.worst_margin < r1.Feasibility.worst_margin)

let test_overload_infeasible () =
  let over =
    Scenarios.uniform ~sources:8 ~classes_per_source:2 ~load:0.98
      ~deadline_windows:1.0
  in
  let p = Ddcr_params.default over in
  Alcotest.(check bool) "nearly saturated + tight deadlines infeasible" false
    (Feasibility.check p over).Feasibility.feasible

let test_foreign_class_rejected () =
  let foreign = { cls_a with Message.cls_id = 99 } in
  Alcotest.check_raises "foreign"
    (Invalid_argument "Feasibility: class does not belong to the instance")
    (fun () -> ignore (Feasibility.rank_bound inst foreign))

let prop_u_at_least_r =
  (* u counts all sources' messages including everything r counts plus
     M itself, so u >= r + 1 whenever l'(M) <= d(m) terms align; we
     check on randomized two-class instances. *)
  let arb =
    QCheck.make
      QCheck.Gen.(
        tup4 (int_range 1 4) (int_range 10_000 500_000)
          (int_range 10_000 500_000) (int_range 1000 8000))
  in
  QCheck.Test.make ~name:"u(M) >= r(M) + 1" ~count:200 arb
    (fun (burst, w, d, bits) ->
      let c0 =
        {
          Message.cls_id = 0;
          cls_name = "x";
          cls_source = 0;
          cls_bits = bits;
          cls_deadline = d;
          cls_burst = burst;
          cls_window = w;
        }
      in
      let c1 = { c0 with Message.cls_id = 1; cls_source = 1 } in
      let i2 =
        Instance.create_exn ~name:"p" ~phy ~num_sources:2
          [ (c0, law); (c1, law) ]
      in
      Feasibility.interference_bound i2 c0
      >= Feasibility.rank_bound i2 c0 + 1)

(* An independent reference for [check]: the §4.3 quantities straight
   from the formulas, one list fold over [Instance.classes] per sum.
   [check] must match it field by field, float bit for float bit. *)
let reference_rows p inst =
  let classes = Instance.classes inst in
  let phy = inst.Instance.phy in
  let cdiv = Rtnet_util.Int_math.cdiv in
  let wire c = Phy.tx_bits phy c.Message.cls_bits in
  let x = float_of_int phy.Phy.slot_bits in
  let xi2 = Xi.eq5 ~m:p.Ddcr_params.time_m ~t:p.Ddcr_params.time_leaves in
  let max_wire = List.fold_left (fun acc c -> max acc (wire c)) 0 classes in
  List.map
    (fun m ->
      let d = m.Message.cls_deadline in
      let r =
        List.fold_left
          (fun acc c ->
            if c.Message.cls_source = m.Message.cls_source then
              acc + (cdiv d c.Message.cls_window * c.Message.cls_burst)
            else acc)
          (-1) classes
      in
      let count c =
        max 0 (cdiv (d + c.Message.cls_deadline - wire m) c.Message.cls_window)
      in
      let u =
        List.fold_left
          (fun acc c -> acc + (count c * c.Message.cls_burst))
          0 classes
      in
      let tx =
        List.fold_left
          (fun acc c -> acc + (count c * c.Message.cls_burst * wire c))
          0 classes
      in
      let v = 1 + (r / Ddcr_params.nu p m.Message.cls_source) in
      let s1 =
        Multi_tree.bound ~m:p.Ddcr_params.static_m
          ~t:p.Ddcr_params.static_leaves ~u ~v
      in
      let paper_slots = s1 +. float_of_int (cdiv v 2 * xi2) in
      let paper = float_of_int tx +. (x *. paper_slots) in
      let slots =
        if phy.Phy.semantics = Phy.Arbitration then
          float_of_int (u + cdiv v 2)
        else paper_slots
      in
      let bound = float_of_int tx +. (x *. slots) in
      let impl =
        paper
        +. (2. *. x *. float_of_int (cdiv v 2 + 1))
        +. float_of_int (max_wire + p.Ddcr_params.burst_bits)
      in
      (m, r, u, v, slots, bound, impl -. paper +. bound))
    classes

(* Random instances on both media: 1–4 sources with 1–4 classes each,
   a positive bursting budget, and a first class whose frame outlasts
   twice its deadline, so d(M) + d(m) − l'(M) < 0 occurs in every
   instance (its own pair at least). *)
let gen_instance =
  QCheck.Gen.(
    bool >>= fun atm ->
    int_range 1 4 >>= fun sources ->
    int_range 1 4 >>= fun per_source ->
    int_range 1 3 >>= fun indices ->
    int_range 1 40_000 >>= fun burst_bits ->
    let cls =
      int_range 1 16_000 >>= fun bits ->
      oneof [ int_range 1 6_000; int_range 6_000 2_000_000 ] >>= fun deadline ->
      int_range 1 4 >>= fun burst ->
      int_range 500 1_000_000 >>= fun window ->
      return (bits, deadline, burst, window)
    in
    list_repeat (sources * per_source) cls >>= fun specs ->
    int_range 1 4_000 >>= fun tight ->
    let specs =
      match specs with
      | (_, _, burst, window) :: rest -> (12_000, tight, burst, window) :: rest
      | [] -> []
    in
    return (atm, sources, indices, burst_bits, specs))

let print_instance (atm, sources, indices, burst_bits, specs) =
  Printf.sprintf "%s sources=%d indices=%d burst_bits=%d [%s]"
    (if atm then "atm-bus" else "gigabit-ethernet")
    sources indices burst_bits
    (String.concat "; "
       (List.map
          (fun (b, d, a, w) -> Printf.sprintf "l=%d d=%d a=%d w=%d" b d a w)
          specs))

let prop_check_matches_reference =
  let bits = Int64.bits_of_float in
  QCheck.Test.make ~name:"check == list-fold reference, bit for bit" ~count:300
    (QCheck.make ~print:print_instance gen_instance)
    (fun (atm, sources, indices, burst_bits, specs) ->
      let phy = if atm then Phy.atm_bus else Phy.gigabit_ethernet in
      let inst =
        Instance.create_exn ~name:"random" ~phy ~num_sources:sources
          (List.mapi
             (fun i (b, d, a, w) ->
               ( {
                   Message.cls_id = i;
                   cls_name = Printf.sprintf "c%d" i;
                   cls_source = i mod sources;
                   cls_bits = b;
                   cls_deadline = d;
                   cls_burst = a;
                   cls_window = w;
                 },
                 law ))
             specs)
      in
      let p =
        {
          (Ddcr_params.default ~indices_per_source:indices inst) with
          Ddcr_params.burst_bits;
        }
      in
      let report = Feasibility.check p inst in
      let rows = reference_rows p inst in
      List.length rows = List.length report.Feasibility.per_class
      && List.for_all2
           (fun cr (m, r, u, v, slots, bound, bound_impl) ->
             cr.Feasibility.cr_cls = m
             && cr.Feasibility.cr_r = r
             && cr.Feasibility.cr_u = u
             && cr.Feasibility.cr_v = v
             && bits cr.Feasibility.cr_search_slots = bits slots
             && bits cr.Feasibility.cr_bound = bits bound
             && bits cr.Feasibility.cr_bound_impl = bits bound_impl
             && cr.Feasibility.cr_feasible
                = (bound <= float_of_int m.Message.cls_deadline))
           report.Feasibility.per_class rows
      && report.Feasibility.feasible
         = List.for_all
             (fun (m, _, _, _, _, bound, _) ->
               bound <= float_of_int m.Message.cls_deadline)
             rows
      && bits report.Feasibility.worst_margin
         = bits
             (List.fold_left
                (fun acc (m, _, _, _, _, bound, _) ->
                  max acc (bound /. float_of_int m.Message.cls_deadline))
                0. rows))

(* [check] allocates O(n) words for n classes (the report rows and a
   few per-class temporaries, all small blocks); its integer work stays
   O(n²).  Counted, not timed, so the test cannot flake: for 4× the
   classes the minor words must grow less than 6×, where a quadratic
   allocator grows ~16×. *)
let test_check_allocation_linear () =
  let words_for ~classes_per_source =
    let inst =
      Scenarios.uniform ~sources:16 ~classes_per_source ~load:0.5
        ~deadline_windows:2.0
    in
    let p = Ddcr_params.default inst in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Feasibility.check p inst));
    Gc.minor_words () -. w0
  in
  let w64 = words_for ~classes_per_source:4 in
  let w256 = words_for ~classes_per_source:16 in
  if w256 /. w64 >= 6. then
    Alcotest.failf "64 -> 256 classes: %.0f -> %.0f words (%.1fx)" w64 w256
      (w256 /. w64)

let suite =
  [
    ( "feasibility",
      [
        Alcotest.test_case "r(M) hand computed" `Quick test_rank_bound_hand_computed;
        Alcotest.test_case "u(M) hand computed" `Quick
          test_interference_bound_hand_computed;
        Alcotest.test_case "v(M)" `Quick test_static_trees_bound;
        Alcotest.test_case "B structure" `Quick test_latency_bound_structure;
        Alcotest.test_case "impl bound dominates" `Quick
          test_impl_bound_exceeds_paper_bound;
        Alcotest.test_case "report consistency" `Quick test_report_consistency;
        Alcotest.test_case "margin vs density" `Quick
          test_margin_improves_with_lower_density;
        Alcotest.test_case "overload infeasible" `Quick test_overload_infeasible;
        Alcotest.test_case "foreign class" `Quick test_foreign_class_rejected;
        QCheck_alcotest.to_alcotest prop_u_at_least_r;
        QCheck_alcotest.to_alcotest prop_check_matches_reference;
        Alcotest.test_case "check allocation is linear" `Quick
          test_check_allocation_linear;
      ] );
  ]
