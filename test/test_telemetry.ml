module Json = Rtnet_util.Json
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Scenarios = Rtnet_workload.Scenarios
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Run = Rtnet_stats.Run
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Sink = Rtnet_telemetry.Sink
module Registry = Rtnet_telemetry.Registry
module Trace_event = Rtnet_telemetry.Trace_event
module Headroom = Rtnet_telemetry.Headroom
module Recorder = Rtnet_telemetry.Recorder
module Spec = Rtnet_campaign.Spec
module Grid = Rtnet_campaign.Grid
module Pool = Rtnet_campaign.Pool
module Runner = Rtnet_campaign.Runner

let ms = 1_000_000

(* --- Registry --- *)

let test_registry_roundtrip () =
  let r = Registry.create () in
  Registry.incr r "a/count";
  Registry.add r "a/count" 4;
  Registry.incr r "b/count";
  Registry.set_gauge r "g" 2.5;
  Registry.max_gauge r "g" 1.0;
  Registry.add_gauge r "busy" 0.25;
  Registry.add_gauge r "busy" 0.25;
  List.iter (Registry.observe r "lat") [ 0; 1; 2; 3; 1024 ];
  Alcotest.(check int) "counter" 5 (Registry.counter_value r "a/count");
  Alcotest.(check int) "absent counter" 0 (Registry.counter_value r "nope");
  Alcotest.(check (option (float 1e-9))) "max_gauge keeps max" (Some 2.5)
    (Registry.gauge_value r "g");
  Alcotest.(check (option (float 1e-9))) "add_gauge accumulates" (Some 0.5)
    (Registry.gauge_value r "busy");
  let snap = Registry.snapshot r in
  Alcotest.(check (list (pair string int)))
    "counters sorted"
    [ ("a/count", 5); ("b/count", 1) ]
    snap.Registry.counters;
  Alcotest.(check (list (pair int int)))
    "sparse log2 buckets"
    [ (0, 2); (1, 2); (10, 1) ]
    (List.assoc "lat" snap.Registry.histograms);
  match Registry.snapshot_of_json (Registry.snapshot_to_json snap) with
  | Error e -> Alcotest.fail e
  | Ok snap' ->
    Alcotest.(check bool) "json roundtrip" true (snap = snap')

(* --- Trace-event builder and validator --- *)

let test_trace_validate_ok () =
  let t = Trace_event.create () in
  Trace_event.set_process_name t ~pid:0 "vt";
  Trace_event.set_thread_name t ~pid:0 ~tid:1 "chan";
  (* Properly nested: child shares the parent's end point. *)
  Trace_event.complete t ~pid:0 ~tid:1 ~name:"outer" ~cat:"x" ~ts:0 ~dur:10 ();
  Trace_event.complete t ~pid:0 ~tid:1 ~name:"inner" ~cat:"x" ~ts:4 ~dur:6
    ~args:[ ("headroom", Json.Float 3.0) ]
    ();
  Trace_event.instant t ~pid:0 ~tid:1 ~name:"mark" ~cat:"x" ~ts:5 ();
  (* Separate track: overlap with tid 1 is fine. *)
  Trace_event.complete t ~pid:0 ~tid:2 ~name:"other" ~cat:"x" ~ts:2 ~dur:100 ();
  match Trace_event.validate (Trace_event.to_json t) with
  | Ok n -> Alcotest.(check int) "three spans checked" 3 n
  | Error e -> Alcotest.fail e

let test_trace_validate_overlap () =
  let t = Trace_event.create () in
  Trace_event.complete t ~pid:0 ~tid:1 ~name:"a" ~cat:"x" ~ts:0 ~dur:10 ();
  Trace_event.complete t ~pid:0 ~tid:1 ~name:"b" ~cat:"x" ~ts:5 ~dur:10 ();
  match Trace_event.validate (Trace_event.to_json t) with
  | Ok _ -> Alcotest.fail "partial overlap must be rejected"
  | Error _ -> ()

let test_trace_validate_negative () =
  let bad_headroom = Trace_event.create () in
  Trace_event.complete bad_headroom ~pid:0 ~tid:1 ~name:"tx" ~cat:"x" ~ts:0
    ~dur:5
    ~args:[ ("headroom", Json.Float (-1.0)) ]
    ();
  (match Trace_event.validate (Trace_event.to_json bad_headroom) with
  | Ok _ -> Alcotest.fail "negative headroom must be rejected"
  | Error _ -> ());
  match Trace_event.validate (Json.Obj [ ("traceEvents", Json.List []) ]) with
  | Ok n -> Alcotest.(check int) "empty trace is valid" 0 n
  | Error e -> Alcotest.fail e

(* --- Recorder against a real DDCR run --- *)

let test_recorder_end_to_end () =
  let inst = Scenarios.videoconference ~stations:4 in
  let horizon = 5 * ms in
  let trace = Instance.trace inst ~seed:11 ~horizon in
  let params = Ddcr_params.default inst in
  let bounds = Feasibility.headroom_bounds (Feasibility.check params inst) in
  let r = Recorder.create ~bounds () in
  let o = Ddcr.run_trace ~sink:(Recorder.sink r) params inst trace ~horizon in
  (* Counters reconcile with the channel's own statistics. *)
  let st = Option.get o.Run.channel in
  let reg = Recorder.registry r in
  Alcotest.(check int) "tx slots" st.Channel.tx_count
    (Registry.counter_value reg "slots/tx");
  Alcotest.(check int) "idle slots" st.Channel.idle_slots
    (Registry.counter_value reg "slots/idle");
  Alcotest.(check int) "completed frames"
    (List.length o.Run.completions)
    (Registry.counter_value reg "frames/completed");
  Alcotest.(check int) "enqueued = arrivals" (List.length trace)
    (Registry.counter_value reg "queue/enqueued");
  (* Headroom: the scenario is feasible, so every class must sit below
     its implementation bound, and the observed counts must add up to
     the completions. *)
  let table = Recorder.headroom_table r in
  Alcotest.(check int) "one entry per class"
    (List.length (Instance.classes inst))
    (List.length table);
  List.iter
    (fun e ->
      if e.Headroom.e_count > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "headroom >= 0 for %s" e.Headroom.e_bound.b_name)
          true
          (Headroom.headroom e >= 0.))
    table;
  Alcotest.(check int) "headroom counts sum to completions"
    (List.length o.Run.completions)
    (List.fold_left (fun acc e -> acc + e.Headroom.e_count) 0 table);
  (* Headroom JSON roundtrip. *)
  (match Headroom.of_json (Headroom.to_json table) with
  | Error e -> Alcotest.fail e
  | Ok table' -> Alcotest.(check bool) "headroom roundtrip" true (table = table'));
  (* The exported timeline passes its own validator. *)
  match Trace_event.validate (Recorder.trace_json r) with
  | Ok n -> Alcotest.(check bool) "trace has spans" true (n > 0)
  | Error e -> Alcotest.fail e

(* The null sink must not change what the simulation computes. *)
let test_null_sink_transparent () =
  let inst = Scenarios.trading ~gateways:3 in
  let horizon = 5 * ms in
  let trace = Instance.trace inst ~seed:3 ~horizon in
  let params = Ddcr_params.default inst in
  let plain = Run.metrics (Ddcr.run_trace params inst trace ~horizon) in
  let recorded =
    let r = Recorder.create () in
    Run.metrics
      (Ddcr.run_trace ~sink:(Recorder.sink r) params inst trace ~horizon)
  in
  let null =
    Run.metrics (Ddcr.run_trace ~sink:Sink.null params inst trace ~horizon)
  in
  Alcotest.(check bool) "recording sink is an observer" true (plain = recorded);
  Alcotest.(check bool) "null sink is an observer" true (plain = null)

(* --- Engine probe: the harness fires it once per slot --- *)

let test_engine_on_step () =
  let inst = Scenarios.videoconference ~stations:4 in
  let horizon = 5 * ms in
  let params = Ddcr_params.default inst in
  let r = Recorder.create () in
  let slots = ref 0 in
  let probe =
    Sink.create ~slot:(fun ~now:_ ~next_free:_ ~resolution:_ -> incr slots) ()
  in
  let plan = Fault_plan.create ~seed:7 (Fault_plan.iid 0.1) in
  let o =
    Ddcr.run ~seed:11 ~plan
      ~sink:(Sink.tee (Recorder.sink r) probe)
      params inst ~horizon
  in
  let st = Option.get o.Run.channel in
  Alcotest.(check bool) "noise garbled some frames" true
    (st.Channel.garbled_count > 0);
  Alcotest.(check int) "one engine event per slot"
    (st.Channel.idle_slots + st.Channel.collision_slots + st.Channel.tx_count
   + st.Channel.garbled_count)
    (Registry.counter_value (Recorder.registry r) "engine/events");
  Alcotest.(check int) "one slot probe per slot" !slots
    (Registry.counter_value (Recorder.registry r) "engine/events")

(* --- Pool timing --- *)

let test_pool_timing () =
  let timings = ref [] in
  let n =
    Pool.map ~jobs:2
      ~on_event:(fun ev ->
        match ev with
        | Pool.Result (i, tm, v) ->
          Alcotest.(check int) "value" (i * i) v;
          timings := tm :: !timings
        | Pool.Failed (_, _, msg) -> Alcotest.fail msg)
      (fun i -> i * i)
      (Array.init 6 Fun.id)
  in
  Alcotest.(check int) "all cells" 6 n;
  Alcotest.(check int) "one timing per cell" 6 (List.length !timings);
  List.iter
    (fun tm ->
      Alcotest.(check bool) "worker id in range" true
        (tm.Pool.worker >= 0 && tm.Pool.worker < 2);
      Alcotest.(check bool) "t1 >= t0" true (tm.Pool.t1 >= tm.Pool.t0))
    !timings

(* --- Runner failure ordering --- *)

let test_order_failures () =
  Alcotest.(check (list string))
    "sorted by submission position"
    [ "a"; "c"; "d" ]
    (Runner.order_failures [ (3, "d"); (0, "a"); (2, "c") ]);
  Alcotest.(check (list string)) "empty" [] (Runner.order_failures [])

(* --- Grid cells with telemetry --- *)

let test_grid_telemetry () =
  let spec = Option.get (Spec.find_builtin "smoke") in
  let cells = Array.to_list (Grid.cells spec) in
  let ddcr_cell =
    List.find (fun c -> c.Grid.protocol = Spec.Ddcr) cells
  in
  let baseline_cell =
    List.find (fun c -> c.Grid.protocol <> Spec.Ddcr) cells
  in
  (* Off by default: no telemetry key in the serialized result. *)
  let off = Grid.run_cell spec ddcr_cell in
  Alcotest.(check bool) "absent when off" true (off.Grid.r_telemetry = None);
  (match Grid.result_to_json off with
  | Json.Obj fields ->
    Alcotest.(check bool) "no telemetry key when off" false
      (List.mem_assoc "telemetry" fields)
  | _ -> Alcotest.fail "result_to_json not an object");
  (* On: DDCR cells get a snapshot, baselines never do. *)
  let on = Grid.run_cell ~telemetry:true spec ddcr_cell in
  Alcotest.(check bool) "present for ddcr" true (on.Grid.r_telemetry <> None);
  let base = Grid.run_cell ~telemetry:true spec baseline_cell in
  Alcotest.(check bool) "absent for baselines" true
    (base.Grid.r_telemetry = None);
  (* Roundtrip preserves the snapshot and the metrics. *)
  match Grid.result_of_json (Grid.result_to_json on) with
  | Error e -> Alcotest.fail e
  | Ok on' ->
    Alcotest.(check bool) "metrics roundtrip" true
      (on.Grid.r_metrics = on'.Grid.r_metrics);
    Alcotest.(check bool) "telemetry roundtrip" true
      (on.Grid.r_telemetry = on'.Grid.r_telemetry)

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "registry roundtrip" `Quick test_registry_roundtrip;
        Alcotest.test_case "trace validate ok" `Quick test_trace_validate_ok;
        Alcotest.test_case "trace validate overlap" `Quick
          test_trace_validate_overlap;
        Alcotest.test_case "trace validate negative" `Quick
          test_trace_validate_negative;
        Alcotest.test_case "recorder end to end" `Quick
          test_recorder_end_to_end;
        Alcotest.test_case "null sink transparent" `Quick
          test_null_sink_transparent;
        Alcotest.test_case "engine on_step" `Quick test_engine_on_step;
        Alcotest.test_case "pool timing" `Quick test_pool_timing;
        Alcotest.test_case "order failures" `Quick test_order_failures;
        Alcotest.test_case "grid telemetry" `Quick test_grid_telemetry;
      ] );
  ]
