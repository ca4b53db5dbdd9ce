(* rtnet.topology: deadline decomposition arithmetic, topology shape
   checks, end-to-end admission, the federated driver, the bridge-queue
   oracle and the CFG-TOPO lint. *)

module Topo = Rtnet_topology.Topo
module Admit = Rtnet_topology.Admit
module Bridge = Rtnet_topology.Bridge
module Driver = Rtnet_topology.Driver
module Decompose = Rtnet_core.Decompose
module Multi_bus = Rtnet_core.Multi_bus
module Fault_plan = Rtnet_channel.Fault_plan
module Config_lint = Rtnet_analysis.Config_lint
module Diagnostic = Rtnet_analysis.Diagnostic
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Scenarios = Rtnet_workload.Scenarios
module Run = Rtnet_stats.Run

let ms = 1_000_000

let split_exn ~policy ~deadline ~bridge_delays ~bounds =
  match Decompose.split ~policy ~deadline ~bridge_delays ~bounds with
  | Ok budgets -> budgets
  | Error e -> Alcotest.fail e

(* -------------------- deadline decomposition -------------------- *)

let test_split_proportional () =
  (* Bounds 30 and 10 split 100 in proportion: 75 / 25. *)
  Alcotest.(check (list int))
    "proportional shares" [ 75; 25 ]
    (split_exn ~policy:Decompose.Proportional ~deadline:100 ~bridge_delays:[]
       ~bounds:[ 30.; 10. ]);
  (* A single hop gets everything. *)
  Alcotest.(check (list int))
    "single hop" [ 100 ]
    (split_exn ~policy:Decompose.Proportional ~deadline:100 ~bridge_delays:[]
       ~bounds:[ 7. ])

let test_split_slack_weighted () =
  (* Each hop gets its bound, the slack (100 − 40 = 60) equally. *)
  Alcotest.(check (list int))
    "equal absolute headroom" [ 60; 40 ]
    (split_exn ~policy:Decompose.Slack_weighted ~deadline:100 ~bridge_delays:[]
       ~bounds:[ 30.; 10. ]);
  (* Odd slack: the first hop gets the spare bit-time. *)
  Alcotest.(check (list int))
    "remainder to the first hop" [ 61; 40 ]
    (split_exn ~policy:Decompose.Slack_weighted ~deadline:101 ~bridge_delays:[]
       ~bounds:[ 30.; 10. ])

let test_split_bridge_delays () =
  (* A 20 bit-time bridge shrinks the splittable budget to 80. *)
  Alcotest.(check (list int))
    "proportional after delay" [ 60; 20 ]
    (split_exn ~policy:Decompose.Proportional ~deadline:100
       ~bridge_delays:[ 20 ] ~bounds:[ 30.; 10. ]);
  Alcotest.(check (list int))
    "slack-weighted after delay" [ 50; 30 ]
    (split_exn ~policy:Decompose.Slack_weighted ~deadline:100
       ~bridge_delays:[ 20 ] ~bounds:[ 30.; 10. ])

let test_split_errors () =
  let expect_error label = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": expected an error")
  in
  expect_error "no hops"
    (Decompose.split ~policy:Decompose.Proportional ~deadline:100
       ~bridge_delays:[] ~bounds:[]);
  expect_error "negative delay"
    (Decompose.split ~policy:Decompose.Proportional ~deadline:100
       ~bridge_delays:[ -1 ] ~bounds:[ 10.; 10. ]);
  expect_error "deadline below bounds + delays"
    (Decompose.split ~policy:Decompose.Slack_weighted ~deadline:45
       ~bridge_delays:[ 10 ] ~bounds:[ 20.; 20. ])

let test_policy_labels () =
  Alcotest.(check string) "proportional" "proportional"
    (Decompose.policy_label Decompose.Proportional);
  Alcotest.(check string) "slack" "slack-weighted"
    (Decompose.policy_label Decompose.Slack_weighted);
  (match Decompose.policy_of_label "slack" with
  | Ok Decompose.Slack_weighted -> ()
  | _ -> Alcotest.fail "slack alias not accepted");
  match Decompose.policy_of_label "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown label accepted"

(* Soundness invariant under random feasible inputs, both policies:
   every hop covers its bound and the total (with bridge delays) stays
   within the end-to-end deadline. *)
let prop_split_invariant =
  let arb =
    QCheck.make ~print:(fun (p, bounds, delays, extra) ->
        Printf.sprintf "%s bounds=[%s] delays=[%s] extra=%d"
          (Decompose.policy_label p)
          (String.concat ";" (List.map string_of_float bounds))
          (String.concat ";" (List.map string_of_int delays))
          extra)
      QCheck.Gen.(
        oneofl [ Decompose.Proportional; Decompose.Slack_weighted ]
        >>= fun policy ->
        int_range 1 4 >>= fun hops ->
        list_size (return hops) (float_bound_exclusive 1_000_000.)
        >>= fun bounds ->
        list_size (return (hops - 1)) (int_bound 100_000) >>= fun delays ->
        int_bound 1_000_000 >>= fun extra ->
        return (policy, bounds, delays, extra))
  in
  QCheck.Test.make ~name:"split keeps every hop >= bound within d(M)"
    ~count:300 arb
    (fun (policy, bounds, delays, extra) ->
      let need =
        List.fold_left (fun acc b -> acc + int_of_float (Float.ceil b)) 0 bounds
        + List.fold_left ( + ) 0 delays
      in
      let deadline = need + extra in
      match Decompose.split ~policy ~deadline ~bridge_delays:delays ~bounds with
      | Error _ -> false
      | Ok budgets ->
        List.length budgets = List.length bounds
        && List.for_all2
             (fun budget bound -> budget >= int_of_float (Float.ceil bound))
             budgets bounds
        && List.fold_left ( + ) 0 budgets + List.fold_left ( + ) 0 delays
           <= deadline)

(* -------------------- topology shape -------------------- *)

let tree5 =
  Topo.tree ~name:"t5" ~segments:5 ~fanout:2 ~sources:4 ~load:0.05
    ~deadline_windows:16.0 ()

let test_tree_shape () =
  Alcotest.(check int) "segments" 5 (List.length tree5.Topo.tp_segments);
  Alcotest.(check int) "bridges" 4 (List.length tree5.Topo.tp_bridges);
  Alcotest.(check int) "flows" 4 (List.length tree5.Topo.tp_flows);
  Alcotest.(check int) "aggregate sources" 20 (Topo.aggregate_sources tree5);
  Alcotest.(check (list string)) "no route errors" [] (Topo.route_errors tree5);
  (* The grandchild flows really are multi-hop. *)
  match List.rev tree5.Topo.tp_flows with
  | last :: _ ->
    Alcotest.(check (list string))
      "deep flow routed through its parent"
      [ "seg4"; "seg1"; "seg0" ] last.Topo.fl_path
  | [] -> Alcotest.fail "no flows"

let test_toposort_and_levels () =
  let order =
    match Topo.toposort tree5 with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "order covers all" 5 (List.length order);
  (* Every bridge goes from an earlier (upstream) to a later segment. *)
  let index s =
    let rec go i = function
      | [] -> Alcotest.fail ("missing " ^ s)
      | x :: _ when x = s -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (b.Topo.br_name ^ " upstream first")
        true
        (index b.Topo.br_from < index b.Topo.br_to))
    tree5.Topo.tp_bridges;
  match Topo.levels tree5 with
  | Error e -> Alcotest.fail e
  | Ok levels ->
    Alcotest.(check (list (list string)))
      "wavefronts by longest path"
      [ [ "seg2"; "seg3"; "seg4" ]; [ "seg1" ]; [ "seg0" ] ]
      (List.map (List.sort compare) levels)

let test_cycle_detected () =
  let seg name =
    match
      Topo.segment_of_workload ~name
        {
          Topo.wk_kind = "uniform";
          wk_size = 2;
          wk_load = 0.05;
          wk_deadline_windows = 8.0;
        }
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let t =
    Topo.create_exn ~name:"loop"
      ~segments:[ seg "a"; seg "b" ]
      ~bridges:
        [
          { Topo.br_name = "ab"; br_from = "a"; br_to = "b"; br_station = 2;
            br_latency = 100; br_capacity = Topo.default_capacity };
          { Topo.br_name = "ba"; br_from = "b"; br_to = "a"; br_station = 2;
            br_latency = 100; br_capacity = Topo.default_capacity };
        ]
      ~flows:[]
  in
  (match Topo.toposort t with
  | Error e ->
    Alcotest.(check bool) "cycle names segments" true
      (Astring_contains.contains e "a")
  | Ok _ -> Alcotest.fail "cycle accepted");
  match Admit.elaborate t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "elaborate accepted a cyclic graph"

let test_route_errors_reported () =
  let bad =
    {
      tree5 with
      Topo.tp_flows =
        [ { Topo.fl_name = "ghost"; fl_cls = 0; fl_path = [ "seg1"; "nowhere" ];
            fl_criticality = 0 } ];
    }
  in
  Alcotest.(check bool) "unroutable flow reported" true
    (Topo.route_errors bad <> []);
  match Admit.elaborate bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "elaborate accepted an unroutable flow"

let test_json_roundtrip () =
  let j1 =
    match Topo.to_json tree5 with Ok j -> j | Error e -> Alcotest.fail e
  in
  let t2 =
    match Topo.of_json j1 with Ok t -> t | Error e -> Alcotest.fail e
  in
  let j2 =
    match Topo.to_json t2 with Ok j -> j | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "canonical JSON round-trips"
    (Rtnet_util.Json.to_string j1)
    (Rtnet_util.Json.to_string j2);
  Alcotest.(check int) "segments survive" 5 (List.length t2.Topo.tp_segments)

(* -------------------- admission -------------------- *)

let elaborate_exn ?policy topo =
  match Admit.elaborate ?policy topo with
  | Ok e -> e
  | Error e -> Alcotest.fail e

let test_admit_small_tree () =
  let e = elaborate_exn tree5 in
  Alcotest.(check bool) "admitted" true e.Admit.e_admitted;
  Alcotest.(check int) "one eflow per flow" 4 (List.length e.Admit.e_flows);
  List.iter
    (fun ef ->
      Alcotest.(check bool)
        (ef.Admit.ef_flow.Topo.fl_name ^ " admitted")
        true ef.Admit.ef_admitted;
      Alcotest.(check int)
        (ef.Admit.ef_flow.Topo.fl_name ^ " hop per path segment")
        (List.length ef.Admit.ef_flow.Topo.fl_path)
        (List.length ef.Admit.ef_hops);
      (* The soundness invariant the driver's verdict relies on. *)
      let budgets =
        List.fold_left (fun acc h -> acc + h.Admit.h_budget) 0 ef.Admit.ef_hops
      in
      let delays =
        List.fold_left
          (fun acc h ->
            acc
            + match h.Admit.h_bridge with
              | None -> 0
              | Some b -> b.Topo.br_latency)
          0 ef.Admit.ef_hops
      in
      Alcotest.(check bool)
        (ef.Admit.ef_flow.Topo.fl_name ^ " budgets + delays <= d(M)")
        true
        (budgets + delays <= ef.Admit.ef_deadline);
      (* Hop classes carry their budget as deadline, so the per-hop
         feasibility test is exactly budget >= bound. *)
      List.iter
        (fun h ->
          Alcotest.(check int) "budget is the hop deadline" h.Admit.h_budget
            h.Admit.h_cls.Message.cls_deadline;
          Alcotest.(check bool) "hop feasible" true h.Admit.h_feasible)
        ef.Admit.ef_hops)
    e.Admit.e_flows;
  (* seg0 takes two bridge stations (4 and 5) on top of its 4 sources. *)
  let seg0 = Admit.instance_of e "seg0" in
  Alcotest.(check int) "root grows to host bridges" 6
    seg0.Instance.num_sources;
  (* The report printer mentions the verdict. *)
  let s = Format.asprintf "%a" Admit.pp_report e in
  Alcotest.(check bool) "report mentions flows" true
    (Astring_contains.contains s "flow1")

let test_admit_rejects_overload () =
  let hot =
    Topo.tree ~name:"hot" ~segments:3 ~fanout:2 ~sources:4 ~load:0.6
      ~deadline_windows:2.0 ()
  in
  let e = elaborate_exn hot in
  Alcotest.(check bool) "rejected" false e.Admit.e_admitted;
  Alcotest.(check bool) "some flow not admitted" true
    (List.exists (fun ef -> not ef.Admit.ef_admitted) e.Admit.e_flows)

let test_both_policies_admit_small_tree () =
  List.iter
    (fun policy ->
      let e = elaborate_exn ~policy tree5 in
      Alcotest.(check bool)
        (Decompose.policy_label policy ^ " admits")
        true e.Admit.e_admitted)
    [ Decompose.Proportional; Decompose.Slack_weighted ]

(* -------------------- bridge oracle -------------------- *)

let test_bridge_verdicts () =
  let e = elaborate_exn tree5 in
  let verdicts = Bridge.check e in
  Alcotest.(check int) "one verdict per bridge" 4 (List.length verdicts);
  List.iter
    (fun v ->
      Alcotest.(check bool) (v.Bridge.bv_bridge ^ " feasible") true
        v.Bridge.bv_feasible)
    verdicts;
  (* br1 joins seg1 to seg0: crossed by seg1's own flow plus the two
     grandchild flows forwarded through seg1. *)
  match List.find_opt (fun v -> v.Bridge.bv_bridge = "br1") verdicts with
  | Some v ->
    Alcotest.(check int) "three flows across br1" 3 v.Bridge.bv_classes;
    Alcotest.(check bool) "demand accounted" true (v.Bridge.bv_utilization > 0.)
  | None -> Alcotest.fail "br1 verdict missing"

(* -------------------- driver -------------------- *)

let driver_ok = function
  | Ok r -> r
  | Error e -> Alcotest.fail ("driver: " ^ e)

let test_driver_zero_misses_when_admitted () =
  let e = elaborate_exn tree5 in
  let res = driver_ok (Driver.run_seeded e ~seed:11 ~horizon:(5 * ms)) in
  let v = res.Driver.r_verdict in
  Alcotest.(check bool) "chains opened" true (v.Driver.v_messages > 0);
  Alcotest.(check bool) "some delivered" true (v.Driver.v_delivered > 0);
  Alcotest.(check int) "no unexcused end-to-end miss" 0
    (List.length v.Driver.v_misses);
  Alcotest.(check int) "delivered chains all in time" v.Driver.v_delivered
    v.Driver.v_met;
  Alcotest.(check int) "accounting closes" v.Driver.v_messages
    (v.Driver.v_delivered + v.Driver.v_in_flight
    + List.length v.Driver.v_misses);
  Alcotest.(check int) "no local miss either" 0
    res.Driver.r_metrics.Run.deadline_misses;
  Alcotest.(check int) "one outcome per segment" 5
    (List.length res.Driver.r_segments)

let test_driver_domain_transparency () =
  let e = elaborate_exn tree5 in
  let r1 = driver_ok (Driver.run_seeded ~domains:1 e ~seed:11 ~horizon:(5 * ms)) in
  let r4 = driver_ok (Driver.run_seeded ~domains:4 e ~seed:11 ~horizon:(5 * ms)) in
  Alcotest.(check string) "fingerprint identical" r1.Driver.r_fingerprint
    r4.Driver.r_fingerprint;
  Alcotest.(check int) "verdicts identical" r1.Driver.r_verdict.Driver.v_met
    r4.Driver.r_verdict.Driver.v_met

let test_driver_attributes_misses () =
  (* A rejected topology still runs; the predicted overload shows up as
     end-to-end misses attributed to a specific hop of a specific
     flow. *)
  let hot =
    Topo.tree ~name:"hot" ~segments:3 ~fanout:2 ~sources:4 ~load:0.9
      ~deadline_windows:0.5 ()
  in
  let e = elaborate_exn hot in
  Alcotest.(check bool) "rejected" false e.Admit.e_admitted;
  let res = driver_ok (Driver.run_seeded e ~seed:7 ~horizon:(5 * ms)) in
  let v = res.Driver.r_verdict in
  Alcotest.(check bool) "misses observed" true (v.Driver.v_misses <> []);
  List.iter
    (fun m ->
      Alcotest.(check bool) "attributed to a path hop" true
        (List.exists
           (fun ef ->
             ef.Admit.ef_flow.Topo.fl_name = m.Driver.ms_flow
             && m.Driver.ms_hop_index < List.length ef.Admit.ef_hops
             && List.exists
                  (fun h -> h.Admit.h_segment = m.Driver.ms_hop)
                  ef.Admit.ef_hops)
           e.Admit.e_flows))
    v.Driver.v_misses

let test_star_reproduces_multi_bus () =
  (* Satellite: Multi_bus.run is the flowless-star special case of the
     topology driver — same seed, same busses, completion-for-
     completion identical outcome. *)
  let inst = Scenarios.trading ~gateways:4 in
  let horizon = 10 * ms in
  let seed = 3 in
  let a = Multi_bus.partition_exn inst ~buses:2 in
  let mb = Multi_bus.run ~seed a ~horizon in
  let star = Topo.of_assignment ~name:"star" a in
  let e = elaborate_exn star in
  let traces =
    List.map
      (fun bus -> (bus.Instance.name, Instance.trace bus ~seed ~horizon))
      (Array.to_list a.Multi_bus.buses)
  in
  let res = driver_ok (Driver.run e ~traces ~horizon) in
  let key c =
    ( (c.Run.c_msg.Message.uid, c.Run.c_msg.Message.cls.Message.cls_id),
      (c.Run.c_start, c.Run.c_finish) )
  in
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "identical completion schedules"
    (List.map key mb.Run.completions)
    (List.map key res.Driver.r_outcome.Run.completions);
  Alcotest.(check int) "same unfinished count"
    (List.length mb.Run.unfinished)
    (List.length res.Driver.r_outcome.Run.unfinished)

(* Any admitted fault-free topology finishes with zero unexcused
   end-to-end misses — the QCheck face of the acceptance criterion. *)
let prop_admitted_runs_clean =
  let arb =
    QCheck.make ~print:(fun (segs, fanout, load, dw, seed) ->
        Printf.sprintf "segs=%d fanout=%d load=%.3f dw=%.1f seed=%d" segs
          fanout load dw seed)
      QCheck.Gen.(
        int_range 2 4 >>= fun segs ->
        int_range 1 2 >>= fun fanout ->
        float_range 0.02 0.08 >>= fun load ->
        float_range 8.0 24.0 >>= fun dw ->
        int_bound 1_000 >>= fun seed -> return (segs, fanout, load, dw, seed))
  in
  QCheck.Test.make ~name:"admitted topology => zero unexcused misses"
    ~count:12 arb
    (fun (segs, fanout, load, dw, seed) ->
      let topo =
        Topo.tree ~name:"q" ~segments:segs ~fanout ~sources:3 ~load
          ~deadline_windows:dw ()
      in
      match Admit.elaborate topo with
      | Error _ -> false
      | Ok e ->
        QCheck.assume e.Admit.e_admitted;
        (match Driver.run_seeded e ~seed ~horizon:(2 * ms) with
        | Error _ -> false
        | Ok res -> res.Driver.r_verdict.Driver.v_misses = []))

(* -------------------- fault plans on topologies -------------------- *)

let tree3 =
  Topo.tree ~name:"t3" ~segments:3 ~fanout:2 ~sources:4 ~load:0.1
    ~deadline_windows:16.0 ()

let with_faults_exn topo plans =
  match Topo.with_faults topo plans with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_with_faults_and_fault_errors () =
  (* Attaching to a known segment composes; station validity is the
     granular fault_errors / CFG-TOPO-FAULT check, exactly like
     route_errors: a declared source or an incoming bridge station is
     fine, anything else is one message per problem. *)
  let bridge_ok =
    with_faults_exn tree3
      [ ("seg0", Fault_plan.crash ~source:4 ~from_:ms ~until:(2 * ms)) ]
  in
  Alcotest.(check (list string)) "bridge station accepted" []
    (Topo.fault_errors bridge_ok);
  let source_ok =
    with_faults_exn tree3
      [ ("seg1", Fault_plan.crash ~source:3 ~from_:ms ~until:(2 * ms)) ]
  in
  Alcotest.(check (list string)) "declared source accepted" []
    (Topo.fault_errors source_ok);
  let ghost =
    with_faults_exn tree3
      [ ("seg0", Fault_plan.crash ~source:99 ~from_:ms ~until:(2 * ms)) ]
  in
  Alcotest.(check int) "unknown station reported" 1
    (List.length (Topo.fault_errors ghost));
  (match Admit.elaborate ghost with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "elaborate accepted an invalid fault plan");
  match
    Topo.with_faults tree3
      [ ("nowhere", Fault_plan.crash ~source:0 ~from_:0 ~until:1) ]
  with
  | Error e ->
    Alcotest.(check bool) "unknown segment named" true
      (Astring_contains.contains e "nowhere")
  | Ok _ -> Alcotest.fail "attached a plan to an unknown segment"

let test_json_fault_roundtrip () =
  (* fault_plan / capacity / criticality keys survive the codec — and
     are omitted at their defaults so pre-fault specs stay
     byte-identical. *)
  let t =
    with_faults_exn
      {
        tree3 with
        Topo.tp_bridges =
          List.map
            (fun b ->
              if b.Topo.br_name = "br1" then { b with Topo.br_capacity = 2 }
              else b)
            tree3.Topo.tp_bridges;
        tp_flows =
          List.map
            (fun f ->
              if f.Topo.fl_name = "flow2" then
                { f with Topo.fl_criticality = 3 }
              else f)
            tree3.Topo.tp_flows;
      }
      [ ("seg0", Fault_plan.crash ~source:4 ~from_:ms ~until:(2 * ms)) ]
  in
  let json =
    match Topo.to_json t with Ok j -> j | Error e -> Alcotest.fail e
  in
  (match Topo.of_json json with
  | Error e -> Alcotest.fail e
  | Ok t' -> (
    (match Topo.segment_lookup t' "seg0" with
    | Some { Topo.sg_fault = Some sp; _ } ->
      Alcotest.(check int) "crash window survives" 1
        (List.length sp.Fault_plan.sp_crashes)
    | _ -> Alcotest.fail "fault plan lost in round-trip");
    (match Topo.find_bridge t' ~from_:"seg1" ~to_:"seg0" with
    | Some b -> Alcotest.(check int) "capacity survives" 2 b.Topo.br_capacity
    | None -> Alcotest.fail "br1 lost");
    match List.find_opt (fun f -> f.Topo.fl_name = "flow2") t'.Topo.tp_flows with
    | Some f -> Alcotest.(check int) "criticality survives" 3 f.Topo.fl_criticality
    | None -> Alcotest.fail "flow2 lost"));
  let clean_json =
    match Topo.to_json tree3 with Ok j -> j | Error e -> Alcotest.fail e
  in
  let bytes = Rtnet_util.Json.to_string clean_json in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " omitted at default") false
        (Astring_contains.contains bytes key))
    [ "fault_plan"; "capacity"; "criticality" ]

(* -------------------- bridge oracle edge cases -------------------- *)

let uniform_segment name =
  match
    Topo.segment_of_workload ~name
      { Topo.wk_kind = "uniform"; wk_size = 3; wk_load = 0.1;
        wk_deadline_windows = 8.0 }
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let test_bridge_check_edge_cases () =
  (* A bridge no flow crosses is trivially feasible, even with zero
     store-and-forward latency. *)
  let nf =
    Topo.create_exn ~name:"nf"
      ~segments:[ uniform_segment "a"; uniform_segment "b" ]
      ~bridges:
        [ { Topo.br_name = "ab"; br_from = "a"; br_to = "b"; br_station = 3;
            br_latency = 0; br_capacity = Topo.default_capacity } ]
      ~flows:[]
  in
  (match Bridge.check (elaborate_exn nf) with
  | [ v ] ->
    Alcotest.(check int) "no forwarded classes" 0 v.Bridge.bv_classes;
    Alcotest.(check (float 0.)) "zero utilization" 0. v.Bridge.bv_utilization;
    Alcotest.(check bool) "trivially feasible" true v.Bridge.bv_feasible;
    Alcotest.(check int) "no crash window" 0 v.Bridge.bv_crash_window
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs)));
  (* Saturation boundary: on every verdict, feasible <=> margin <= 1. *)
  let hot =
    Topo.tree ~name:"hot" ~segments:3 ~fanout:2 ~sources:4 ~load:0.9
      ~deadline_windows:0.5 ()
  in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (v.Bridge.bv_bridge ^ " margin consistent with verdict")
        v.Bridge.bv_feasible
        (v.Bridge.bv_margin <= 1.))
    (Bridge.check (elaborate_exn hot) @ Bridge.check (elaborate_exn tree3))

let test_bridge_check_fault_aware () =
  (* A survivable crash window is priced but admitted; a window that
     swallows the forwarded hop's deadline flips the bridge to
     infeasible with infinite margin.  The fault-blind check ignores
     the plan entirely. *)
  let survivable =
    with_faults_exn tree3
      [ ("seg0", Fault_plan.crash ~source:4 ~from_:ms ~until:(2 * ms)) ]
  in
  (match
     List.find_opt
       (fun v -> v.Bridge.bv_bridge = "br1")
       (Bridge.check ~fault_aware:true (elaborate_exn survivable))
   with
  | Some v ->
    Alcotest.(check int) "window deducted" ms v.Bridge.bv_crash_window;
    Alcotest.(check bool) "still feasible" true v.Bridge.bv_feasible
  | None -> Alcotest.fail "br1 verdict missing");
  let swallowing =
    with_faults_exn tree3
      [ ("seg0", Fault_plan.crash ~source:4 ~from_:4096 ~until:5_600_000) ]
  in
  let e = elaborate_exn swallowing in
  (match
     List.find_opt
       (fun v -> v.Bridge.bv_bridge = "br1")
       (Bridge.check ~fault_aware:true e)
   with
  | Some v ->
    Alcotest.(check bool) "overloaded under the outage" false
      v.Bridge.bv_feasible;
    Alcotest.(check bool) "infinite margin" true
      (v.Bridge.bv_margin = Float.infinity)
  | None -> Alcotest.fail "br1 verdict missing");
  match
    List.find_opt (fun v -> v.Bridge.bv_bridge = "br1") (Bridge.check e)
  with
  | Some v ->
    Alcotest.(check bool) "fault-blind check unchanged" true
      v.Bridge.bv_feasible;
    Alcotest.(check int) "no window accounted" 0 v.Bridge.bv_crash_window
  | None -> Alcotest.fail "br1 verdict missing"

(* -------------------- degraded-mode driver -------------------- *)

let test_driver_degraded_restored () =
  (* The acceptance walkthrough: a mid-trace bridge crash on an
     admitted tree completes with zero unexcused misses, a DEGRADED /
     RESTORED transition pair, and a deterministic fingerprint. *)
  let t =
    with_faults_exn tree3
      [ ("seg0", Fault_plan.crash ~source:4 ~from_:ms ~until:(2 * ms)) ]
  in
  let e = elaborate_exn t in
  let res = driver_ok (Driver.run_seeded e ~seed:11 ~horizon:(5 * ms)) in
  let v = res.Driver.r_verdict in
  Alcotest.(check (list string)) "no unexcused end-to-end miss" []
    (List.map (fun m -> m.Driver.ms_flow) v.Driver.v_misses);
  Alcotest.(check bool) "degraded transition emitted" true
    (List.exists
       (function
         | Driver.Degraded { dg_bridge = "br1"; dg_from; dg_until; _ } ->
           dg_from = ms && dg_until = 2 * ms
         | _ -> false)
       res.Driver.r_events);
  Alcotest.(check bool) "restored transition emitted" true
    (List.exists
       (function
         | Driver.Restored { rs_bridge = "br1"; rs_at; _ } -> rs_at = 2 * ms
         | _ -> false)
       res.Driver.r_events);
  let res' = driver_ok (Driver.run_seeded e ~seed:11 ~horizon:(5 * ms)) in
  Alcotest.(check string) "fault runs are deterministic"
    res.Driver.r_fingerprint res'.Driver.r_fingerprint

let test_driver_sheds_lowest_criticality () =
  (* Tighter deadlines: the backlog held across the outage no longer
     decomposes for one chain, which is shed (structured, counted) —
     never a silent loss, never an unexcused miss. *)
  let t =
    Topo.tree ~name:"shed" ~segments:3 ~fanout:2 ~sources:4 ~load:0.3
      ~deadline_windows:8.0 ()
  in
  let t =
    with_faults_exn t
      [ ("seg0", Fault_plan.crash ~source:5 ~from_:854_885 ~until:1_402_498) ]
  in
  let e = elaborate_exn ~policy:Decompose.Slack_weighted t in
  let res = driver_ok (Driver.run_seeded e ~seed:11 ~horizon:(5 * ms)) in
  let v = res.Driver.r_verdict in
  Alcotest.(check int) "one chain shed" 1 v.Driver.v_shed;
  Alcotest.(check int) "no unexcused miss" 0 (List.length v.Driver.v_misses);
  Alcotest.(check bool) "shed event names the parked bridge" true
    (List.exists
       (function
         | Driver.Shed { sh_bridge = "br2"; sh_criticality = 0; _ } -> true
         | _ -> false)
       res.Driver.r_events);
  Alcotest.(check int) "accounting closes" v.Driver.v_messages
    (v.Driver.v_delivered + v.Driver.v_in_flight + v.Driver.v_shed
    + List.length v.Driver.v_misses)

let test_driver_bridge_overflow_drops () =
  (* A bounded store-and-forward queue: with capacity 1 and a long
     outage, held hand-offs overflow and are dropped
     oldest-past-deadline first — surfaced as structured bridge_drops,
     not silence. *)
  let t =
    Topo.tree ~name:"ovf" ~segments:3 ~fanout:2 ~sources:4 ~load:0.3
      ~deadline_windows:16.0 ()
  in
  let t =
    {
      t with
      Topo.tp_bridges =
        List.map
          (fun b ->
            if b.Topo.br_name = "br1" then { b with Topo.br_capacity = 1 }
            else b)
          t.Topo.tp_bridges;
    }
  in
  let t =
    with_faults_exn t
      [ ("seg0", Fault_plan.crash ~source:4 ~from_:ms ~until:(4 * ms)) ]
  in
  let e = elaborate_exn ~policy:Decompose.Slack_weighted t in
  let res = driver_ok (Driver.run_seeded e ~seed:11 ~horizon:(5 * ms)) in
  let v = res.Driver.r_verdict in
  Alcotest.(check bool) "overflow drops recorded" true
    (v.Driver.v_bridge_drops <> []);
  List.iter
    (fun d ->
      Alcotest.(check string) "drop names the parked bridge" "br1"
        d.Driver.bd_bridge;
      Alcotest.(check string) "drop names the crossing flow" "flow1"
        d.Driver.bd_flow)
    v.Driver.v_bridge_drops;
  Alcotest.(check int) "accounting closes" v.Driver.v_messages
    (v.Driver.v_delivered + v.Driver.v_in_flight + v.Driver.v_shed
    + List.length v.Driver.v_bridge_drops
    + List.length v.Driver.v_misses)

let test_driver_miss_attribution_names_fault () =
  (* On an overloaded tree running under a fault plan, misses on the
     faulty segment's hops carry the fault attribution. *)
  let hot =
    Topo.tree ~name:"hot" ~segments:3 ~fanout:2 ~sources:4 ~load:0.9
      ~deadline_windows:0.5 ()
  in
  let hot =
    with_faults_exn hot
      [ ("seg0", Fault_plan.crash ~source:4 ~from_:ms ~until:(2 * ms)) ]
  in
  let e = elaborate_exn hot in
  let res = driver_ok (Driver.run_seeded e ~seed:7 ~horizon:(5 * ms)) in
  let v = res.Driver.r_verdict in
  let faulted =
    List.filter (fun m -> m.Driver.ms_fault <> None) v.Driver.v_misses
  in
  Alcotest.(check bool) "some misses blame the faulty hop" true (faulted <> []);
  List.iter
    (fun m ->
      match m.Driver.ms_fault with
      | Some f ->
        Alcotest.(check bool) "attribution names a bridge or faulty segment"
          true
          (f = "br1" || f = "br2" || f = "seg0")
      | None -> ())
    v.Driver.v_misses

(* -------------------- CFG-TOPO lint -------------------- *)

let test_lint_admitted_clean () =
  let ds = Config_lint.check_topo tree5 in
  Alcotest.(check int) "no errors" 0 (List.length (Diagnostic.errors ds));
  Alcotest.(check bool) "admission summarised" true
    (List.exists
       (fun d ->
         d.Diagnostic.rule_id = "CFG-TOPO"
         && d.Diagnostic.severity = Diagnostic.Info)
       ds)

let test_lint_flags_unroutable () =
  let bad =
    {
      tree5 with
      Topo.tp_flows =
        [ { Topo.fl_name = "ghost"; fl_cls = 0; fl_path = [ "seg1"; "nowhere" ];
            fl_criticality = 0 } ];
    }
  in
  let ds = Config_lint.check_topo bad in
  Alcotest.(check bool) "unroutable is an error" true
    (List.exists
       (fun d -> d.Diagnostic.rule_id = "CFG-TOPO")
       (Diagnostic.errors ds))

let test_lint_flags_budget_overrun () =
  let hot =
    Topo.tree ~name:"hot" ~segments:3 ~fanout:2 ~sources:4 ~load:0.6
      ~deadline_windows:2.0 ()
  in
  let ds = Config_lint.check_topo hot in
  Alcotest.(check bool) "budget below bound is an error" true
    (Diagnostic.has_errors ds)

let test_lint_flags_bad_fault_plan () =
  (* An out-of-segment crash station is a spec bug: CFG-TOPO-FAULT
     error, reported before (and instead of) admission. *)
  let bad =
    with_faults_exn tree3
      [ ("seg0", Fault_plan.crash ~source:99 ~from_:ms ~until:(2 * ms)) ]
  in
  let ds = Config_lint.check_topo bad in
  Alcotest.(check bool) "CFG-TOPO-FAULT error" true
    (List.exists
       (fun d -> d.Diagnostic.rule_id = "CFG-TOPO-FAULT")
       (Diagnostic.errors ds))

let test_lint_warns_unabsorbable_outage () =
  (* A crash window parking a segment's only inbound bridge for longer
     than a crossing flow's end-to-end slack cannot be absorbed: the
     lint warns even though the spec is well-formed. *)
  let chain =
    Topo.tree ~name:"chain" ~segments:2 ~fanout:1 ~sources:4 ~load:0.1
      ~deadline_windows:16.0 ()
  in
  let t =
    with_faults_exn chain
      [ ("seg0", Fault_plan.crash ~source:4 ~from_:4096 ~until:(12 * ms)) ]
  in
  let ds = Config_lint.check_topo t in
  Alcotest.(check bool) "unabsorbable outage warned" true
    (List.exists
       (fun d ->
         d.Diagnostic.rule_id = "CFG-TOPO-FAULT"
         && d.Diagnostic.severity = Diagnostic.Warning)
       ds);
  (* The same window on the survivable scale stays clean. *)
  let ok =
    with_faults_exn chain
      [ ("seg0", Fault_plan.crash ~source:4 ~from_:ms ~until:(2 * ms)) ]
  in
  Alcotest.(check bool) "survivable window not warned" false
    (List.exists
       (fun d ->
         d.Diagnostic.rule_id = "CFG-TOPO-FAULT"
         && d.Diagnostic.severity = Diagnostic.Warning)
       (Config_lint.check_topo ok))

(* ---------------- toposort against the quadratic reference ---------------- *)

(* The reference for [Topo.toposort] and [Topo.levels]: declaration-
   order Kahn in its plainest, quadratic form, which rescans the
   remaining segments for the first with no upstream edge left, and
   every bridge for each segment placed. *)
let reference_toposort (t : Topo.t) =
  let names = List.map (fun s -> s.Topo.sg_name) t.Topo.tp_segments in
  let indeg = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace indeg n 0) names;
  let bump n d = Hashtbl.replace indeg n (Hashtbl.find indeg n + d) in
  List.iter (fun b -> bump b.Topo.br_to 1) t.Topo.tp_bridges;
  let rec go acc remaining =
    if remaining = [] then Ok (List.rev acc)
    else
      match List.find_opt (fun n -> Hashtbl.find indeg n = 0) remaining with
      | None ->
        Error
          (Printf.sprintf "bridge graph is cyclic (among segments %s)"
             (String.concat ", " remaining))
      | Some n ->
        List.iter
          (fun b -> if b.Topo.br_from = n then bump b.Topo.br_to (-1))
          t.Topo.tp_bridges;
        go (n :: acc) (List.filter (fun m -> m <> n) remaining)
  in
  go [] names

let reference_levels (t : Topo.t) =
  Result.map
    (fun order ->
      let level = Hashtbl.create 8 in
      List.iter (fun n -> Hashtbl.replace level n 0) order;
      List.iter
        (fun n ->
          List.iter
            (fun b ->
              if b.Topo.br_from = n then
                Hashtbl.replace level b.Topo.br_to
                  (max (Hashtbl.find level b.Topo.br_to)
                     (Hashtbl.find level n + 1)))
            t.Topo.tp_bridges)
        order;
      let deepest =
        List.fold_left (fun acc n -> max acc (Hashtbl.find level n)) 0 order
      in
      List.init (deepest + 1) (fun k ->
          List.filter (fun n -> Hashtbl.find level n = k) order))
    (reference_toposort t)

(* [n] segments declared in index order, with a random topological
   rank: a bridge joins each pair of increasing rank with probability
   1/4.  [cyclic] adds the reverse of one bridge (or a self-loop). *)
let random_topo ~cyclic (n, seed) =
  let rs = Random.State.make [| seed |] in
  let rank = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let x = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- x
  done;
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if rank.(i) < rank.(j) && Random.State.int rs 4 = 0 then
        edges := (i, j) :: !edges
    done
  done;
  let edges =
    match (cyclic, List.rev !edges) with
    | false, edges -> edges
    | true, [] -> [ (0, 0) ]
    | true, edges ->
      let i, j = List.nth edges (Random.State.int rs (List.length edges)) in
      edges @ [ (j, i) ]
  in
  let inst =
    Scenarios.uniform ~sources:1 ~classes_per_source:1 ~load:0.1
      ~deadline_windows:2.0
  in
  let name i = Printf.sprintf "s%d" i in
  {
    Topo.tp_name = "random";
    tp_segments =
      List.init n (fun i ->
          {
            Topo.sg_name = name i;
            sg_instance = inst;
            sg_workload = None;
            sg_fault = None;
          });
    tp_bridges =
      List.mapi
        (fun k (i, j) ->
          {
            Topo.br_name = Printf.sprintf "b%d" k;
            br_from = name i;
            br_to = name j;
            br_station = 1;
            br_latency = 0;
            br_capacity = 1;
          })
        edges;
    tp_flows = [];
  }

let prop_toposort_matches_reference =
  let arb =
    QCheck.make
      ~print:(fun (n, seed, cyclic) ->
        Printf.sprintf "n=%d seed=%d cyclic=%b" n seed cyclic)
      QCheck.Gen.(triple (int_range 1 24) (int_bound 1_000_000) bool)
  in
  QCheck.Test.make ~name:"toposort and levels match the quadratic reference"
    ~count:300 arb (fun (n, seed, cyclic) ->
      let t = random_topo ~cyclic (n, seed) in
      let sorted = Topo.toposort t in
      (match (cyclic, sorted) with
      | true, Ok _ -> QCheck.Test.fail_report "a cyclic graph sorted"
      | false, Error e -> QCheck.Test.fail_report e
      | _ -> ());
      sorted = reference_toposort t && Topo.levels t = reference_levels t)

let suite =
  [
    ( "topology",
      [
        Alcotest.test_case "split proportional" `Quick test_split_proportional;
        Alcotest.test_case "split slack-weighted" `Quick
          test_split_slack_weighted;
        Alcotest.test_case "split bridge delays" `Quick test_split_bridge_delays;
        Alcotest.test_case "split errors" `Quick test_split_errors;
        Alcotest.test_case "policy labels" `Quick test_policy_labels;
        QCheck_alcotest.to_alcotest prop_split_invariant;
        Alcotest.test_case "tree shape" `Quick test_tree_shape;
        Alcotest.test_case "toposort and levels" `Quick test_toposort_and_levels;
        Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
        Alcotest.test_case "route errors" `Quick test_route_errors_reported;
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "admit small tree" `Quick test_admit_small_tree;
        Alcotest.test_case "admit rejects overload" `Quick
          test_admit_rejects_overload;
        Alcotest.test_case "both policies admit" `Quick
          test_both_policies_admit_small_tree;
        Alcotest.test_case "bridge verdicts" `Quick test_bridge_verdicts;
        Alcotest.test_case "driver zero misses" `Slow
          test_driver_zero_misses_when_admitted;
        Alcotest.test_case "driver domain transparency" `Slow
          test_driver_domain_transparency;
        Alcotest.test_case "driver attributes misses" `Slow
          test_driver_attributes_misses;
        Alcotest.test_case "star reproduces multi_bus" `Slow
          test_star_reproduces_multi_bus;
        QCheck_alcotest.to_alcotest prop_admitted_runs_clean;
        Alcotest.test_case "lint admitted clean" `Quick test_lint_admitted_clean;
        Alcotest.test_case "lint unroutable" `Quick test_lint_flags_unroutable;
        Alcotest.test_case "lint budget overrun" `Quick
          test_lint_flags_budget_overrun;
        Alcotest.test_case "with_faults and fault_errors" `Quick
          test_with_faults_and_fault_errors;
        Alcotest.test_case "json fault roundtrip" `Quick
          test_json_fault_roundtrip;
        Alcotest.test_case "bridge check edge cases" `Quick
          test_bridge_check_edge_cases;
        Alcotest.test_case "bridge check fault aware" `Quick
          test_bridge_check_fault_aware;
        Alcotest.test_case "driver degraded restored" `Slow
          test_driver_degraded_restored;
        Alcotest.test_case "driver sheds lowest criticality" `Slow
          test_driver_sheds_lowest_criticality;
        Alcotest.test_case "driver bridge overflow drops" `Slow
          test_driver_bridge_overflow_drops;
        Alcotest.test_case "driver miss attribution names fault" `Slow
          test_driver_miss_attribution_names_fault;
        Alcotest.test_case "lint flags bad fault plan" `Quick
          test_lint_flags_bad_fault_plan;
        Alcotest.test_case "lint warns unabsorbable outage" `Quick
          test_lint_warns_unabsorbable_outage;
        QCheck_alcotest.to_alcotest prop_toposort_matches_reference;
      ] );
  ]
