(* The paper's tables: regenerates every figure of the paper (Fig. 1
   and Fig. 2) plus one table per verifiable analytical claim (Eq.
   5-19, the feasibility conditions, the protocol comparison the paper
   argues qualitatively).  The output is deterministic and `dune
   runtest` diffs it against test/fixtures/paper_tables.expected, so a
   change that moves any cell shows up as a golden diff.  Speed is
   measured by perfbench, not here.

   Experiment ids (E1..E18) are indexed in DESIGN.md and their
   paper-vs-measured record lives in EXPERIMENTS.md. *)

module Table = Rtnet_util.Table
module Xi = Rtnet_core.Xi
module Multi_tree = Rtnet_core.Multi_tree
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Multi_bus = Rtnet_core.Multi_bus
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Arrival = Rtnet_workload.Arrival
module Scenarios = Rtnet_workload.Scenarios
module Phy = Rtnet_channel.Phy
module Fault_plan = Rtnet_channel.Fault_plan
module Run = Rtnet_stats.Run
module Np_edf = Rtnet_edf.Np_edf
module Beb = Rtnet_baselines.Csma_cd_beb
module Dcr = Rtnet_baselines.Csma_dcr
module Tdma = Rtnet_baselines.Tdma

let ms = 1_000_000

let section title =
  Printf.printf "\n================ %s ================\n%!" title

(* E1 / Fig. 1: worst-case search times for a 64-leaf balanced
   quaternary tree — exact xi and the asymptotic tight bound. *)
let fig1 () =
  section "E1 (Fig. 1): 64-leaf quaternary tree: xi and its asymptote";
  let m = 4 and t = 64 in
  let tab = Xi.table ~m ~t in
  let out = Table.create [ "k"; "xi_k^64"; "xi~_k^64"; "gap" ] in
  for k = 0 to t do
    let tilde =
      if k >= 2 then Printf.sprintf "%.2f" (Xi.tilde ~m ~t (float_of_int k))
      else "-"
    in
    let gap =
      if k >= 2 then
        Printf.sprintf "%.2f" (Xi.tilde ~m ~t (float_of_int k) -. float_of_int tab.(k))
      else "-"
    in
    Table.add_row out [ string_of_int k; string_of_int tab.(k); tilde; gap ]
  done;
  Table.print out;
  Printf.printf "concave asymptote, exact at k = 2*4^i; max gap (even k) = %.3f <= 9.54%% * t = %.3f\n"
    (Xi.max_gap ~m ~t)
    (Xi.gap_bound_universal *. float_of_int t)

(* E2 / Fig. 2: binary vs quaternary on 64 leaves. *)
let fig2 () =
  section "E2 (Fig. 2): 64-leaf binary vs quaternary trees";
  let b = Xi.table ~m:2 ~t:64 and q = Xi.table ~m:4 ~t:64 in
  let out = Table.create [ "k"; "xi (m=2)"; "xi (m=4)"; "quaternary wins" ] in
  let dominated = ref true in
  for k = 2 to 64 do
    if q.(k) > b.(k) then dominated := false;
    Table.add_row out
      [
        string_of_int k;
        string_of_int b.(k);
        string_of_int q.(k);
        (if q.(k) <= b.(k) then "yes" else "NO");
      ]
  done;
  Table.print out;
  Printf.printf "paper's claim (quaternary <= binary for all k in [2,64]): %b\n"
    !dominated

(* E3: the closed-form special values Eq. 5-7 across tree shapes. *)
let eq5_7 () =
  section "E3 (Eq. 5-7): special values across tree shapes";
  let out =
    Table.create [ "m"; "t"; "xi_2 (Eq.5)"; "xi_{2t/m} (Eq.6)"; "xi_t (Eq.7)" ]
  in
  List.iter
    (fun (m, n) ->
      let t = Rtnet_util.Int_math.pow m n in
      Table.add_int_row out
        [ m; t; Xi.eq5 ~m ~t; Xi.eq6 ~m ~t; Xi.eq7 ~m ~t ])
    [ (2, 3); (2, 6); (2, 10); (3, 3); (3, 5); (4, 3); (4, 5); (8, 2); (8, 3) ];
  Table.print out

(* E4: tightness of the asymptote, Eq. 12-14. *)
let tightness () =
  section "E4 (Eq. 12-14): tightness of the asymptotic bound";
  let out =
    Table.create
      [ "m"; "t"; "max gap (even k)"; "Eq.13 bound"; "Eq.14 bound"; "holds" ]
  in
  List.iter
    (fun (m, n) ->
      let t = Rtnet_util.Int_math.pow m n in
      let gap = Xi.max_gap ~m ~t in
      let b13 = Xi.gap_bound ~m *. float_of_int t in
      let b14 = Xi.gap_bound_universal *. float_of_int t in
      Table.add_row out
        [
          string_of_int m;
          string_of_int t;
          Printf.sprintf "%.3f" gap;
          Printf.sprintf "%.3f" b13;
          Printf.sprintf "%.3f" b14;
          (if gap <= b13 +. 1e-9 && gap <= b14 +. 1e-9 then "yes" else "NO");
        ])
    [ (2, 6); (2, 10); (3, 4); (3, 6); (4, 3); (4, 5); (5, 4); (8, 3); (9, 3) ];
  Table.print out

(* E5: problem P2 — analytic bound vs exhaustive optimisation. *)
let p2 () =
  section "E5 (Eq. 16-19): multi-tree worst case, bound vs exhaustive";
  let out =
    Table.create
      [ "m"; "t"; "v"; "u"; "exhaustive max"; "Eq.19 bound"; "slack" ]
  in
  List.iter
    (fun (m, t, v) ->
      List.iter
        (fun u ->
          if u >= 2 * v && u <= t * v then begin
            let exact = Multi_tree.worst_exact ~m ~t ~u ~v in
            let bound = Multi_tree.bound ~m ~t ~u ~v in
            Table.add_row out
              [
                string_of_int m;
                string_of_int t;
                string_of_int v;
                string_of_int u;
                string_of_int exact;
                Printf.sprintf "%.2f" bound;
                Printf.sprintf "%.2f" (bound -. float_of_int exact);
              ]
          end)
        [ 2 * v; 3 * v; 4 * v; 6 * v; 8 * v ])
    [ (2, 8, 2); (2, 8, 4); (4, 16, 2); (4, 16, 4); (3, 27, 3) ];
  Table.print out

(* E6: feasibility-condition validation — simulated worst latency under
   the greedy peak-load adversary vs the analytical bounds. *)
let fc_validation () =
  section "E6 (Sec. 4.3): bound domination under the peak-load adversary";
  let out =
    Table.create
      [
        "instance"; "class"; "observed worst"; "B_DDCR"; "B_impl"; "obs/B"; "ok";
      ]
  in
  List.iter
    (fun (name, inst) ->
      let params = Ddcr_params.default inst in
      let adv = Instance.with_law inst Arrival.Greedy_burst in
      let o = Ddcr.run ~seed:42 params adv ~horizon:(40 * ms) in
      List.iter
        (fun (cls_id, worst) ->
          let c =
            List.find (fun c -> c.Message.cls_id = cls_id) (Instance.classes adv)
          in
          let b = Feasibility.latency_bound params adv c in
          let bi = Feasibility.latency_bound_impl params adv c in
          Table.add_row out
            [
              name;
              c.Message.cls_name;
              string_of_int worst;
              Printf.sprintf "%.0f" b;
              Printf.sprintf "%.0f" bi;
              Printf.sprintf "%.3f" (float_of_int worst /. b);
              (if float_of_int worst <= bi then "yes" else "NO");
            ])
        (Run.per_class_worst_latency o))
    [
      ("videoconference", Scenarios.videoconference ~stations:5);
      ("air-traffic", Scenarios.air_traffic_control ~radars:4);
      ( "uniform-0.2",
        Scenarios.uniform ~sources:6 ~classes_per_source:1 ~load:0.2
          ~deadline_windows:3.0 );
      ( "uniform-0.4",
        Scenarios.uniform ~sources:8 ~classes_per_source:1 ~load:0.4
          ~deadline_windows:4.0 );
    ];
  Table.print out

(* E7: protocol comparison across offered load (the motivation of
   Sec. 3.1: deterministic resolution beats BEB's tail and TDMA's
   reservation waste; the NP-EDF oracle is the floor). *)
let protocol_comparison () =
  section "E7 (Sec. 3.1/5): protocol comparison under increasing load";
  let out =
    Table.create
      [ "load"; "protocol"; "delivered"; "misses"; "worst lat (us)"; "mean lat (us)"; "inversions" ]
  in
  List.iter
    (fun load ->
      let inst =
        Scenarios.uniform ~sources:8 ~classes_per_source:2 ~load
          ~deadline_windows:2.0
      in
      let horizon = 40 * ms in
      let trace = Instance.trace inst ~seed:42 ~horizon in
      let params = Ddcr_params.default inst in
      let runs =
        [
          Ddcr.run_trace params inst trace ~horizon;
          Beb.run_trace ~seed:42 inst trace ~horizon;
          Dcr.run_trace (Dcr.of_ddcr params) inst trace ~horizon;
          Tdma.run_trace inst trace ~horizon;
          Np_edf.run inst.Instance.phy trace ~horizon;
        ]
      in
      List.iter
        (fun o ->
          let m = Run.metrics o in
          Table.add_row out
            [
              Printf.sprintf "%.2f" load;
              o.Run.protocol;
              string_of_int m.Run.delivered;
              string_of_int m.Run.deadline_misses;
              Printf.sprintf "%.1f" (float_of_int m.Run.worst_latency /. 1000.);
              Printf.sprintf "%.1f" (m.Run.mean_latency /. 1000.);
              string_of_int m.Run.inversions;
            ])
        runs)
    [ 0.1; 0.3; 0.5; 0.7; 0.85 ];
  Table.print out;
  (* The same sweep, replicated and machine-readable:
     `ddcr_campaign run load_sweep` writes BENCH_load_sweep.json with
     per-cell metrics for all five protocols over these loads. *)
  Printf.printf
    "(machine-readable replicated form: ddcr_campaign run load_sweep)\n"

(* E8: the "optimal m" remark at the end of Sec. 4.1. *)
let optimal_m () =
  section "E8 (Sec. 4.1): choosing the branching degree";
  let out =
    Table.create
      [ "m"; "t (>= 64 leaves)"; "xi_2"; "xi_t"; "sum xi / t" ]
  in
  List.iter
    (fun m ->
      let rec tree size = if size >= 64 then size else tree (size * m) in
      let t = tree m in
      Table.add_row out
        [
          string_of_int m;
          string_of_int t;
          string_of_int (Xi.eq5 ~m ~t);
          string_of_int (Xi.eq7 ~m ~t);
          Printf.sprintf "%.2f"
            (float_of_int (Xi.total_over_ks ~m ~t) /. float_of_int t);
        ])
    [ 2; 3; 4; 5; 8 ];
  Table.print out;
  Printf.printf "best branching for 64 leaves among {2,3,4,8}: m = %d\n"
    (Xi.best_branching ~min_leaves:64 ~candidates:[ 2; 3; 4; 8 ])

(* E9: compressed time ablation (theta trade-off of Sec. 3.2). *)
let compressed_time () =
  section "E9 (Sec. 3.2): compressed-time mode ablation";
  (* Far deadlines relative to the scheduling horizon: exactly the
     situation compressed time exists for. *)
  let phy = Phy.classic_ethernet in
  let far id src =
    {
      Message.cls_id = id;
      cls_name = Printf.sprintf "far%d" id;
      cls_source = src;
      cls_bits = 1000;
      cls_deadline = 1_000_000;
      cls_burst = 1;
      cls_window = 1_500_000;
    }
  in
  (* A sprinkle of genuinely urgent traffic: aggressive compression
     promotes far-deadline messages into the urgent messages' classes,
     which is where the deadline inversions of the trade-off come
     from. *)
  let urgent id src =
    {
      Message.cls_id = id;
      cls_name = Printf.sprintf "urgent%d" id;
      cls_source = src;
      cls_bits = 1000;
      cls_deadline = 30_000;
      cls_burst = 1;
      cls_window = 40_000;
    }
  in
  let inst =
    Instance.create_exn ~name:"far-deadlines" ~phy ~num_sources:4
      (List.init 4 (fun i -> (far i i, Arrival.Periodic { offset = i * 700 }))
      @ List.init 4 (fun i ->
            (urgent (4 + i) i, Arrival.Periodic { offset = 13_000 + (i * 9_700) })))
  in
  let base =
    {
      Ddcr_params.time_m = 2;
      time_leaves = 16;
      class_width = 2000;
      alpha = 0;
      theta = 0;
      static_m = 2;
      static_leaves = 4;
      static_indices = [| [| 0 |]; [| 1 |]; [| 2 |]; [| 3 |] |];
      burst_bits = 0;
    }
  in
  let out =
    Table.create
      [ "theta"; "first finish (us)"; "mean lat (us)"; "idle+collision slots"; "inversions" ]
  in
  List.iter
    (fun theta ->
      let p = Ddcr_params.with_theta base theta in
      let o = Ddcr.run ~seed:1 p inst ~horizon:(3 * ms) in
      let m = Run.metrics o in
      let wasted =
        match o.Run.channel with
        | Some st ->
          st.Rtnet_channel.Channel.idle_slots
          + st.Rtnet_channel.Channel.collision_slots
        | None -> 0
      in
      let first =
        match o.Run.completions with
        | c :: _ -> Printf.sprintf "%.1f" (float_of_int c.Run.c_finish /. 1000.)
        | [] -> "-"
      in
      Table.add_row out
        [
          string_of_int theta;
          first;
          Printf.sprintf "%.1f" (m.Run.mean_latency /. 1000.);
          string_of_int wasted;
          string_of_int m.Run.inversions;
        ])
    [ 0; 2000; 8000; 32000 ];
  Table.print out

(* E10: destructive vs arbitrated collisions (Sec. 5's ATM bus). *)
let atm_mode () =
  section "E10 (Sec. 5): ATM internal bus, destructive vs arbitrated";
  let inst = Scenarios.atm_fabric ~ports:4 in
  let destructive_phy = { inst.Instance.phy with Phy.semantics = Phy.Destructive } in
  let destructive =
    Instance.create_exn ~name:"atm-destructive" ~phy:destructive_phy
      ~num_sources:inst.Instance.num_sources
      (Array.to_list inst.Instance.classes)
  in
  let out =
    Table.create
      [ "collision semantics"; "delivered"; "misses"; "worst lat"; "mean lat"; "utilization" ]
  in
  List.iter
    (fun (label, i) ->
      let params = Ddcr_params.default i in
      let o = Ddcr.run ~seed:9 params i ~horizon:(4 * ms) in
      let m = Run.metrics o in
      Table.add_row out
        [
          label;
          string_of_int m.Run.delivered;
          string_of_int m.Run.deadline_misses;
          string_of_int m.Run.worst_latency;
          Printf.sprintf "%.0f" m.Run.mean_latency;
          Printf.sprintf "%.3f" m.Run.utilization;
        ])
    [ ("arbitrated (XOR bus)", inst); ("destructive", destructive) ];
  Table.print out;
  (* The Sec. 3.2 "straightforward" analytical counterpart: per-class
     B_DDCR with the arbitrated zeta analysis vs the destructive one. *)
  let params = Ddcr_params.default inst in
  let bounds = Table.create [ "class"; "B (destructive xi)"; "B (arbitrated)" ] in
  List.iter
    (fun c ->
      Table.add_row bounds
        [
          c.Message.cls_name;
          Printf.sprintf "%.0f" (Feasibility.latency_bound params inst c);
          Printf.sprintf "%.0f" (Feasibility.latency_bound_arbitrated params inst c);
        ])
    (Instance.classes inst);
  Table.print bounds

(* E11: packet bursting (Sec. 5, IEEE 802.3z) — the extension the paper
   recommends for Gigabit Ethernet, where small frames cost a full
   4096-bit contention slot each. *)
let packet_bursting () =
  section "E11 (Sec. 5): packet bursting on small-frame workloads";
  let inst = Scenarios.trading ~gateways:6 in
  let horizon = 50 * ms in
  let trace = Instance.trace inst ~seed:3 ~horizon in
  let base = Ddcr_params.default inst in
  let out =
    Table.create
      [ "burst budget (bits)"; "misses"; "worst lat (us)"; "mean lat (us)"; "inversions" ]
  in
  List.iter
    (fun burst ->
      let p = Ddcr_params.with_burst base burst in
      let m = Run.metrics (Ddcr.run_trace p inst trace ~horizon) in
      Table.add_row out
        [
          string_of_int burst;
          string_of_int m.Run.deadline_misses;
          Printf.sprintf "%.1f" (float_of_int m.Run.worst_latency /. 1000.);
          Printf.sprintf "%.1f" (m.Run.mean_latency /. 1000.);
          string_of_int m.Run.inversions;
        ])
    [ 0; 8_192; 32_768; 65_536 ];
  Table.print out;
  print_endline
    "(65536 bits is the 802.3z burstLimit; Sec. 5 predicts bursting also\n\
     reduces deadline inversions relative to coarse equivalence classes)"

(* E12: resilience to channel noise — the fault-tolerance interest of
   broadcast-media protocols (Sec. 3.1).  Garbled frames are retried
   deterministically; we sweep the corruption rate. *)
let channel_noise () =
  section "E12 (Sec. 3.1): deterministic retries under channel noise";
  let inst = Scenarios.trading ~gateways:4 in
  let horizon = 40 * ms in
  let trace = Instance.trace inst ~seed:5 ~horizon in
  let params = Ddcr_params.default inst in
  let out =
    Table.create
      [ "corruption"; "garbled"; "delivered"; "misses"; "worst lat (us)"; "mean lat (us)" ]
  in
  List.iter
    (fun rate ->
      let plan =
        if rate = 0. then None
        else Some (Fault_plan.create ~seed:21 (Fault_plan.iid rate))
      in
      let o = Ddcr.run_trace ?plan params inst trace ~horizon in
      let m = Run.metrics o in
      let garbled =
        match o.Run.channel with
        | Some st -> st.Rtnet_channel.Channel.garbled_count
        | None -> 0
      in
      Table.add_row out
        [
          Printf.sprintf "%.2f" rate;
          string_of_int garbled;
          string_of_int m.Run.delivered;
          string_of_int m.Run.deadline_misses;
          Printf.sprintf "%.1f" (float_of_int m.Run.worst_latency /. 1000.);
          Printf.sprintf "%.1f" (m.Run.mean_latency /. 1000.);
        ])
    [ 0.0; 0.02; 0.05; 0.1; 0.2 ];
  Table.print out

(* E13: dual-bus operation (Sec. 5's deployed configuration): an
   instance infeasible on one bus becomes provably feasible when its
   message set is split over two parallel busses. *)
let dual_bus () =
  section "E13 (Sec. 5): single vs dual bus";
  let inst = Scenarios.manufacturing ~cells:6 in
  let single = Feasibility.check (Ddcr_params.default inst) inst in
  let dual = Multi_bus.check (Multi_bus.partition_exn inst ~buses:2) in
  Printf.printf "FC margins: single bus %.3f (feasible %b), dual bus %.3f (feasible %b)\n"
    single.Feasibility.worst_margin single.Feasibility.feasible
    dual.Multi_bus.worst_margin dual.Multi_bus.feasible;
  let horizon = 40 * ms in
  let overload =
    Instance.with_law
      (Scenarios.uniform ~sources:8 ~classes_per_source:2 ~load:0.85
         ~deadline_windows:2.0)
      Arrival.Greedy_burst
  in
  let out =
    Table.create [ "configuration"; "delivered"; "misses"; "worst lat (us)"; "utilization" ]
  in
  let row label m =
    Table.add_row out
      [
        label;
        string_of_int m.Run.delivered;
        string_of_int m.Run.deadline_misses;
        Printf.sprintf "%.1f" (float_of_int m.Run.worst_latency /. 1000.);
        Printf.sprintf "%.3f" m.Run.utilization;
      ]
  in
  row "0.85 load, 1 bus"
    (Run.metrics (Ddcr.run ~seed:5 (Ddcr_params.default overload) overload ~horizon));
  row "0.85 load, 2 buses"
    (Run.metrics
       (Multi_bus.run ~seed:5 (Multi_bus.partition_exn overload ~buses:2) ~horizon));
  Table.print out

(* E14: Sec. 5 proposes carrying deadlines to the MAC through the
   802.1Q priority field — 8 levels.  Quantization is conservative
   (deadlines round down to their bucket), so correctness is kept; the
   cost is coarser EDF ordering inside the protocol.  Misses and
   latency are measured against the REAL deadlines. *)
let cos_quantization () =
  section "E14 (Sec. 5): deadlines through the 802.1Q priority field";
  let inst = Scenarios.manufacturing ~cells:5 in
  let horizon = 40 * ms in
  let original_cls = Hashtbl.create 32 in
  List.iter
    (fun c -> Hashtbl.replace original_cls c.Message.cls_id c)
    (Instance.classes inst);
  let against_real o =
    (* Remap every message back to its original class so lateness is
       judged against the true deadline, not the quantized one. *)
    let remap m =
      { m with Message.cls = Hashtbl.find original_cls m.Message.cls.Message.cls_id }
    in
    Run.metrics
      {
        o with
        Run.completions =
          List.map
            (fun c -> { c with Run.c_msg = remap c.Run.c_msg })
            o.Run.completions;
        unfinished = List.map remap o.Run.unfinished;
      }
  in
  let out =
    Table.create
      [ "priority levels"; "misses (real d)"; "worst lat (us)"; "mean lat (us)"; "inversions" ]
  in
  let row label inst_q =
    let params = Ddcr_params.default inst_q in
    let m = against_real (Ddcr.run ~seed:9 params inst_q ~horizon) in
    Table.add_row out
      [
        label;
        string_of_int m.Run.deadline_misses;
        Printf.sprintf "%.1f" (float_of_int m.Run.worst_latency /. 1000.);
        Printf.sprintf "%.1f" (m.Run.mean_latency /. 1000.);
        string_of_int m.Run.inversions;
      ]
  in
  row "exact deadlines" inst;
  List.iter
    (fun levels ->
      let scheme = Rtnet_edf.Cos.design ~levels inst in
      row (string_of_int levels)
        (Rtnet_edf.Cos.quantize_instance scheme inst))
    [ 8; 4; 2; 1 ];
  Table.print out;
  print_endline
    "(802.1p offers 8 levels; quantization is essentially free there, as\n\
     Sec. 5 anticipates)"

(* E15: the provable price of distribution — the FC margin of
   CSMA/DDCR vs the schedulability margin of the centralized NP-EDF
   oracle it emulates (Sec. 3.1 / ref [20]), on the same instances. *)
let price_of_distribution () =
  section "E15 (Sec. 3.1): provable price of distribution";
  let out =
    Table.create
      [ "instance"; "oracle margin"; "ddcr margin"; "price"; "both verdicts" ]
  in
  List.iter
    (fun (name, inst) ->
      let oracle = Rtnet_edf.Np_edf_fc.check inst in
      let ddcr = Feasibility.check (Ddcr_params.default inst) inst in
      let om = oracle.Rtnet_edf.Np_edf_fc.np_margin in
      let dm = ddcr.Feasibility.worst_margin in
      Table.add_row out
        [
          name;
          Printf.sprintf "%.3f" om;
          Printf.sprintf "%.3f" dm;
          Printf.sprintf "%.1fx" (dm /. om);
          Printf.sprintf "%s / %s"
            (if oracle.Rtnet_edf.Np_edf_fc.np_feasible then "ok" else "NO")
            (if ddcr.Feasibility.feasible then "ok" else "NO");
        ])
    [
      ("videoconference-5", Scenarios.videoconference ~stations:5);
      ("air-traffic-4", Scenarios.air_traffic_control ~radars:4);
      ("trading-4", Scenarios.trading ~gateways:4);
      ("manufacturing-4", Scenarios.manufacturing ~cells:4);
      ( "uniform-0.3",
        Scenarios.uniform ~sources:8 ~classes_per_source:2 ~load:0.3
          ~deadline_windows:2.0 );
      ( "uniform-0.6",
        Scenarios.uniform ~sources:8 ~classes_per_source:2 ~load:0.6
          ~deadline_windows:2.0 );
    ];
  Table.print out;
  print_endline
    "(price = how much of the deadline budget the distributed contention\n\
     resolution provably consumes beyond an ideal centralized queue)"

(* E16: average-case search cost and channel efficiency — the basis of
   Sec. 3.1's claim that tree protocols reach near-optimal channel
   utilization.  Exact nested-hypergeometric expectation over uniform
   random active sets. *)
let expected_case () =
  section "E16 (Sec. 3.1): expected search cost and channel efficiency";
  let out =
    Table.create
      [ "m"; "t"; "k"; "E[search]"; "worst xi"; "E/worst"; "efficiency (3-slot frames)" ]
  in
  List.iter
    (fun m ->
      let rec tree size = if size >= 64 then size else tree (size * m) in
      let t = tree m in
      List.iter
        (fun k ->
          if k <= t then begin
            let e = Xi.expected ~m ~t ~k in
            let w = Xi.exact ~m ~t ~k in
            Table.add_row out
              [
                string_of_int m;
                string_of_int t;
                string_of_int k;
                Printf.sprintf "%.2f" e;
                string_of_int w;
                Printf.sprintf "%.2f" (e /. float_of_int w);
                Printf.sprintf "%.3f"
                  (Xi.expected_efficiency ~m ~t ~k ~frame_slots:3.0);
              ]
          end)
        [ 2; 4; 8; 16; 32 ])
    [ 2; 3; 4; 8 ];
  Table.print out;
  print_endline
    "(the expectation sits well below the worst case; for m <= 4 the\n\
     expected epoch efficiency with 3-slot frames stays near 0.6-0.74\n\
     across contention levels - the near-optimal utilization Sec. 3.1\n\
     cites; binary/ternary trees win on average at low contention even\n\
     though quaternary dominates the worst case)"

(* E17: static-index allocation ablation — the paper's mapping model
   leaves the q' -> sources partition unrestricted (Sec. 3.2); on
   skewed loads the choice matters both provably (v(M) via ν_i) and
   behaviourally (search locality). *)
let allocation () =
  section "E17 (Sec. 3.2): static-index allocation on a skewed load";
  let inst = Scenarios.skewed ~sources:8 ~heavy_fraction:0.7 in
  let horizon = 40 * ms in
  let trace = Instance.trace inst ~seed:4 ~horizon in
  let out =
    Table.create
      [ "allocation"; "FC margin"; "misses"; "worst lat (us)"; "mean lat (us)"; "inversions" ]
  in
  List.iter
    (fun (label, alloc) ->
      let params = Ddcr_params.default ~allocation:alloc inst in
      let fc = Feasibility.check params inst in
      let m = Run.metrics (Ddcr.run_trace params inst trace ~horizon) in
      Table.add_row out
        [
          label;
          Printf.sprintf "%.3f" fc.Feasibility.worst_margin;
          string_of_int m.Run.deadline_misses;
          Printf.sprintf "%.1f" (float_of_int m.Run.worst_latency /. 1000.);
          Printf.sprintf "%.1f" (m.Run.mean_latency /. 1000.);
          string_of_int m.Run.inversions;
        ])
    [
      ("round-robin", Ddcr_params.Round_robin);
      ("contiguous", Ddcr_params.Contiguous);
      ("load-weighted", Ddcr_params.Weighted);
    ];
  Table.print out;
  print_endline
    "(one source carries 70% of the load: weighting its share of static\n\
     leaves fixes the provable margin, while keeping its indices in one\n\
     contiguous block fixes the observed behaviour - search locality)"

(* E18: does Fig. 2's worst-case branching comparison show up
   end-to-end?  The whole protocol run under binary, quaternary and
   octal trees on a contended workload. *)
let branching_end_to_end () =
  section "E18 (Fig. 2, end to end): protocol behaviour vs branching degree";
  let inst = Scenarios.trading ~gateways:5 in
  let horizon = 40 * ms in
  let trace = Instance.trace inst ~seed:6 ~horizon in
  let out =
    Table.create
      [ "branching m"; "F"; "q"; "misses"; "worst lat (us)"; "mean lat (us)"; "inversions" ]
  in
  List.iter
    (fun m ->
      let params = Ddcr_params.default ~branching:m inst in
      let r = Run.metrics (Ddcr.run_trace params inst trace ~horizon) in
      Table.add_row out
        [
          string_of_int m;
          string_of_int params.Ddcr_params.time_leaves;
          string_of_int params.Ddcr_params.static_leaves;
          string_of_int r.Run.deadline_misses;
          Printf.sprintf "%.1f" (float_of_int r.Run.worst_latency /. 1000.);
          Printf.sprintf "%.1f" (r.Run.mean_latency /. 1000.);
          string_of_int r.Run.inversions;
        ])
    [ 2; 3; 4; 8 ];
  Table.print out;
  print_endline
    "(the branching degree also fixes the reachable static-tree sizes q\n\
     and per-source index counts - here quaternary lands on q=16 with 3\n\
     indices per source while the others waste leaves at q=8/9 - which\n\
     is part of why Fig. 2's quaternary choice wins in deployment)"

let () =
  fig1 ();
  fig2 ();
  eq5_7 ();
  tightness ();
  p2 ();
  fc_validation ();
  protocol_comparison ();
  optimal_m ();
  compressed_time ();
  atm_mode ();
  packet_bursting ();
  channel_noise ();
  dual_bus ();
  cos_quantization ();
  price_of_distribution ();
  expected_case ();
  allocation ();
  branching_end_to_end ();
  print_newline ()
