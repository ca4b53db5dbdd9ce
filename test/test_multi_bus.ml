module Multi_bus = Rtnet_core.Multi_bus
module Feasibility = Rtnet_core.Feasibility
module Ddcr_params = Rtnet_core.Ddcr_params
module Scenarios = Rtnet_workload.Scenarios
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Run = Rtnet_stats.Run

let ms = 1_000_000

let test_partition_covers_all_classes () =
  let inst = Scenarios.trading ~gateways:5 in
  let a = Multi_bus.partition_exn inst ~buses:2 in
  let original_ids =
    List.sort compare
      (List.map (fun c -> c.Message.cls_id) (Instance.classes inst))
  in
  let bus_ids =
    List.sort compare
      (List.concat_map
         (fun bus -> List.map (fun c -> c.Message.cls_id) (Instance.classes bus))
         (Array.to_list a.Multi_bus.buses))
  in
  Alcotest.(check (list int)) "exact partition" original_ids bus_ids;
  Alcotest.(check int) "bus_of_class total"
    (List.length original_ids)
    (List.length a.Multi_bus.bus_of_class)

let test_partition_balances_load () =
  let inst = Scenarios.trading ~gateways:6 in
  let a = Multi_bus.partition_exn inst ~buses:2 in
  let loads =
    Array.map Instance.peak_utilization a.Multi_bus.buses
  in
  let total = Instance.peak_utilization inst in
  Alcotest.(check (float 1e-9)) "loads sum to original" total
    (Array.fold_left ( +. ) 0. loads);
  (* Worst-fit keeps the imbalance under one heaviest class. *)
  Alcotest.(check bool) "roughly balanced" true
    (abs_float (loads.(0) -. loads.(1)) < 0.6 *. total)

let test_partition_tie_break_deterministic () =
  (* Six classes of identical load: worst-fit has to break every tie.
     The documented rule — equal-load classes in ascending id, equal-
     load busses to the lowest index — pins the exact assignment, and
     it must not depend on class declaration order (topology
     fingerprints rely on partitions being pure functions of the class
     set). *)
  let cls id =
    {
      Message.cls_id = id;
      cls_name = "tie" ^ string_of_int id;
      cls_source = id mod 2;
      cls_bits = 1_000;
      cls_deadline = 60_000;
      cls_burst = 1;
      cls_window = 50_000;
    }
  in
  let mk order =
    Instance.create_exn ~name:"ties" ~phy:Rtnet_channel.Phy.classic_ethernet
      ~num_sources:2
      (List.map
         (fun i -> (cls i, Rtnet_workload.Arrival.Periodic { offset = 0 }))
         order)
  in
  let ids = [ 0; 1; 2; 3; 4; 5 ] in
  let a = Multi_bus.partition_exn (mk ids) ~buses:2 in
  let b = Multi_bus.partition_exn (mk (List.rev ids)) ~buses:2 in
  Alcotest.(check (list (pair int int)))
    "declaration-order independent"
    (List.sort compare a.Multi_bus.bus_of_class)
    (List.sort compare b.Multi_bus.bus_of_class);
  Alcotest.(check (list (pair int int)))
    "documented round-robin on all-equal loads"
    [ (0, 0); (1, 1); (2, 0); (3, 1); (4, 0); (5, 1) ]
    (List.sort compare a.Multi_bus.bus_of_class)

let test_partition_errors () =
  let inst = Scenarios.videoconference ~stations:2 (* 6 classes *) in
  (match Multi_bus.partition inst ~buses:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "buses=0 accepted");
  match Multi_bus.partition inst ~buses:7 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "more buses than classes accepted"

let test_single_bus_is_identity () =
  let inst = Scenarios.videoconference ~stations:3 in
  let a = Multi_bus.partition_exn inst ~buses:1 in
  Alcotest.(check int) "one bus" 1 (Array.length a.Multi_bus.buses);
  Alcotest.(check int) "same classes"
    (List.length (Instance.classes inst))
    (List.length (Instance.classes a.Multi_bus.buses.(0)))

let test_second_bus_restores_feasibility () =
  (* An instance whose FC margin is > 1 on one bus but whose halves
     both pass: the dual-bus deployment argument of Section 5. *)
  let inst =
    Scenarios.uniform ~sources:8 ~classes_per_source:2 ~load:0.5
      ~deadline_windows:1.0
  in
  let single = Feasibility.check (Ddcr_params.default inst) inst in
  Alcotest.(check bool) "single bus infeasible" false single.Feasibility.feasible;
  let dual = Multi_bus.check (Multi_bus.partition_exn inst ~buses:2) in
  Alcotest.(check bool) "dual bus feasible" true dual.Multi_bus.feasible;
  Alcotest.(check bool) "margin improved" true
    (dual.Multi_bus.worst_margin < single.Feasibility.worst_margin)

let test_run_merges_and_conserves () =
  let inst = Scenarios.trading ~gateways:4 in
  let horizon = 10 * ms in
  let a = Multi_bus.partition_exn inst ~buses:2 in
  let merged = Multi_bus.run ~seed:3 a ~horizon in
  (* Each bus generates its own trace from the same seed; merged
     accounting must reconcile with the per-bus traces. *)
  let expected =
    Array.fold_left
      (fun acc bus -> acc + List.length (Instance.trace bus ~seed:3 ~horizon))
      0 a.Multi_bus.buses
  in
  Alcotest.(check int) "conservation" expected
    (List.length merged.Run.completions + List.length merged.Run.unfinished);
  Alcotest.(check bool) "protocol label" true
    (merged.Run.protocol = "csma-ddcr/2-bus");
  (* Completions sorted by finish time after the merge. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Run.c_finish <= b.Run.c_finish && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "merged sorted" true (sorted merged.Run.completions)

let test_dual_bus_removes_misses () =
  (* The same overload that makes one bus miss deadlines is harmless
     when split over two. *)
  let inst =
    Instance.with_law
      (Scenarios.uniform ~sources:8 ~classes_per_source:2 ~load:0.85
         ~deadline_windows:2.0)
      Rtnet_workload.Arrival.Greedy_burst
  in
  let horizon = 30 * ms in
  let single =
    Run.metrics
      (Rtnet_core.Ddcr.run ~seed:5 (Ddcr_params.default inst) inst ~horizon)
  in
  let dual =
    Run.metrics
      (Multi_bus.run ~seed:5 (Multi_bus.partition_exn inst ~buses:2) ~horizon)
  in
  Alcotest.(check bool) "single bus misses" true (single.Run.deadline_misses > 0);
  Alcotest.(check int) "dual bus clean" 0 dual.Run.deadline_misses

let test_dimension_finds_minimum () =
  (* Feasible on one bus: dimension returns exactly one. *)
  let easy = Scenarios.videoconference ~stations:5 in
  (match Multi_bus.dimension easy with
  | Some (a, r) ->
    Alcotest.(check int) "one bus suffices" 1 (Array.length a.Multi_bus.buses);
    Alcotest.(check bool) "report feasible" true r.Multi_bus.feasible
  | None -> Alcotest.fail "expected feasible");
  (* Needs exactly two. *)
  let med =
    Scenarios.uniform ~sources:8 ~classes_per_source:2 ~load:0.5
      ~deadline_windows:1.0
  in
  (match Multi_bus.dimension med with
  | Some (a, _) ->
    Alcotest.(check int) "two buses" 2 (Array.length a.Multi_bus.buses)
  | None -> Alcotest.fail "expected feasible with <= 4 buses");
  (* Hopeless: per-class deadline shorter than its own frame. *)
  let impossible =
    Scenarios.uniform ~sources:4 ~classes_per_source:2 ~load:0.9
      ~deadline_windows:0.005
  in
  Alcotest.(check bool) "none" true (Multi_bus.dimension impossible = None)

let test_report_printer () =
  let inst = Scenarios.videoconference ~stations:4 in
  let r = Multi_bus.check (Multi_bus.partition_exn inst ~buses:2) in
  let s = Format.asprintf "%a" Multi_bus.pp_report r in
  Alcotest.(check bool) "mentions busses" true
    (Astring_contains.contains s "bus 1")

let suite =
  [
    ( "multi_bus",
      [
        Alcotest.test_case "partition covers" `Quick test_partition_covers_all_classes;
        Alcotest.test_case "partition balances" `Quick test_partition_balances_load;
        Alcotest.test_case "partition tie-break" `Quick
          test_partition_tie_break_deterministic;
        Alcotest.test_case "partition errors" `Quick test_partition_errors;
        Alcotest.test_case "single bus identity" `Quick test_single_bus_is_identity;
        Alcotest.test_case "dual bus feasibility" `Quick
          test_second_bus_restores_feasibility;
        Alcotest.test_case "run merges" `Quick test_run_merges_and_conserves;
        Alcotest.test_case "dual bus removes misses" `Slow
          test_dual_bus_removes_misses;
        Alcotest.test_case "dimension minimum" `Quick test_dimension_finds_minimum;
        Alcotest.test_case "report printer" `Quick test_report_printer;
      ] );
  ]
