module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Ddcr_trace = Rtnet_core.Ddcr_trace
module Scenarios = Rtnet_workload.Scenarios
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Run = Rtnet_stats.Run
module Arrival = Rtnet_workload.Arrival
module Feasibility = Rtnet_core.Feasibility
module Sink = Rtnet_telemetry.Sink
module Recorder = Rtnet_telemetry.Recorder
module Registry = Rtnet_telemetry.Registry
module Flight = Rtnet_obs.Flight
module Json = Rtnet_util.Json

let ms = 1_000_000

let run_with_trace ?plan inst ~seed ~horizon =
  let params = Ddcr_params.default inst in
  let sink, finish = Ddcr_trace.collector () in
  let outcome = Ddcr.run ~sink ?plan ~seed params inst ~horizon in
  (outcome, finish ())

let test_totals_reconcile_with_channel () =
  let inst = Scenarios.trading ~gateways:4 in
  let outcome, events = run_with_trace inst ~seed:6 ~horizon:(10 * ms) in
  let s = Ddcr_trace.summarize events in
  match outcome.Run.channel with
  | None -> Alcotest.fail "expected channel stats"
  | Some st ->
    let idle_total =
      List.fold_left (fun acc (_, n) -> acc + n) 0 s.Ddcr_trace.idle_by_phase
    in
    Alcotest.(check int) "idle slots match" st.Channel.idle_slots idle_total;
    Alcotest.(check int) "collision slots match" st.Channel.collision_slots
      s.Ddcr_trace.collision_slots;
    Alcotest.(check int) "frames match tx_count" st.Channel.tx_count
      s.Ddcr_trace.frames;
    Alcotest.(check int) "frames match completions"
      (List.length outcome.Run.completions)
      s.Ddcr_trace.frames

let test_searches_balanced () =
  let inst = Scenarios.trading ~gateways:4 in
  let _, events = run_with_trace inst ~seed:6 ~horizon:(10 * ms) in
  (* Every Sts_begin is matched by an Sts_end; every Tts_end follows a
     Tts_begin; Sts events only occur inside a TTs. *)
  let tts_open = ref 0 and sts_open = ref 0 and ok = ref true in
  List.iter
    (fun e ->
      match e with
      | Ddcr_trace.Tts_begin _ ->
        if !tts_open <> 0 then ok := false;
        incr tts_open
      | Ddcr_trace.Tts_end _ ->
        if !tts_open <> 1 || !sts_open <> 0 then ok := false;
        decr tts_open
      | Ddcr_trace.Sts_begin _ ->
        if !tts_open <> 1 || !sts_open <> 0 then ok := false;
        incr sts_open
      | Ddcr_trace.Sts_end _ ->
        if !sts_open <> 1 then ok := false;
        decr sts_open
      | Ddcr_trace.Idle_slot _ | Ddcr_trace.Collision_slot _
      | Ddcr_trace.Garbled_slot _ | Ddcr_trace.Frame_sent _
      | Ddcr_trace.Crash _ | Ddcr_trace.Rejoin _ | Ddcr_trace.Desync _
      | Ddcr_trace.Resync _ -> ())
    events;
  Alcotest.(check bool) "well parenthesised" true (!ok && !tts_open = 0 && !sts_open = 0)

let test_vias_observed () =
  let inst = Scenarios.trading ~gateways:4 in
  let _, events = run_with_trace inst ~seed:6 ~horizon:(20 * ms) in
  let s = Ddcr_trace.summarize events in
  let via v = try List.assoc v s.Ddcr_trace.frames_by_via with Not_found -> 0 in
  (* A bursty contended workload exercises every transmission path
     except bursting (disabled by default). *)
  Alcotest.(check bool) "free csma frames" true (via Ddcr_trace.Free_csma > 0);
  Alcotest.(check bool) "static tree frames" true (via Ddcr_trace.Static_tree > 0);
  Alcotest.(check bool)
    "time-tree or attempt frames" true
    (via Ddcr_trace.Time_tree + via Ddcr_trace.Open_attempt > 0);
  Alcotest.(check int) "no bursting" 0 (via Ddcr_trace.Bursting);
  Alcotest.(check bool) "some searches ran" true (s.Ddcr_trace.tts_count > 0);
  Alcotest.(check bool) "productive <= total" true
    (s.Ddcr_trace.tts_productive <= s.Ddcr_trace.tts_count)

let test_burst_frames_traced () =
  let inst = Scenarios.trading ~gateways:4 in
  let params = Ddcr_params.with_burst (Ddcr_params.default inst) 65_536 in
  let sink, finish = Ddcr_trace.collector () in
  let _ = Ddcr.run ~sink ~seed:6 params inst ~horizon:(10 * ms) in
  let s = Ddcr_trace.summarize (finish ()) in
  let via v = try List.assoc v s.Ddcr_trace.frames_by_via with Not_found -> 0 in
  Alcotest.(check bool) "burst frames recorded" true (via Ddcr_trace.Bursting > 0)

let test_garbled_traced () =
  let inst = Scenarios.videoconference ~stations:4 in
  let plan = Fault_plan.create ~seed:99 (Fault_plan.iid 0.3) in
  let outcome, events = run_with_trace ~plan inst ~seed:3 ~horizon:(20 * ms) in
  let s = Ddcr_trace.summarize events in
  Alcotest.(check bool) "garbled events seen" true (s.Ddcr_trace.garbled_slots > 0);
  match outcome.Run.channel with
  | Some st ->
    Alcotest.(check int) "garbled matches stats" st.Channel.garbled_count
      s.Ddcr_trace.garbled_slots
  | None -> Alcotest.fail "expected stats"

let test_printers () =
  let inst = Scenarios.trading ~gateways:3 in
  let _, events = run_with_trace inst ~seed:2 ~horizon:(2 * ms) in
  let s = Ddcr_trace.summarize events in
  let text =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Ddcr_trace.pp_event) events)
  in
  Alcotest.(check bool) "events render" true (String.length text > 0);
  let sm = Format.asprintf "%a" Ddcr_trace.pp_summary s in
  Alcotest.(check bool) "summary renders" true
    (Astring_contains.contains sm "frames:")

(* What the slot reports, pinned per run: the trace events, the
   recorder's Perfetto JSON and registry snapshot, and a flight-ring
   dump (12 hex digits of each MD5, in that order).  The matrix reaches STs, θ jumps, bursts, garbled frames,
   desync/resync and a cold restart; a change to what any consumer
   sees moves a digest. *)
let pin_plans (inst : Instance.t) =
  let all_down =
    List.init inst.Instance.num_sources (fun source ->
        Fault_plan.crash ~source ~from_:1_500_000 ~until:1_800_000)
  in
  [
    ("none", None);
    ( "noisy",
      Some
        (List.fold_left Fault_plan.compose (Fault_plan.misperceive 0.002)
           [
             Fault_plan.iid 0.01;
             Fault_plan.crash ~source:1 ~from_:800_000 ~until:1_100_000;
             Fault_plan.crash ~source:2 ~from_:2_000_000 ~until:2_250_000;
           ]) );
    ("all-down", Some (List.fold_left Fault_plan.compose Fault_plan.none all_down));
  ]

let pin_instances =
  [
    ("trading-4", Scenarios.trading ~gateways:4);
    ("atm-fabric-4", Scenarios.atm_fabric ~ports:4);
    ( "uniform-0.3",
      Scenarios.uniform ~sources:8 ~classes_per_source:2 ~load:0.3
        ~deadline_windows:2.0 );
  ]

let short s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let slot_report inst spec =
  let inst = Instance.with_law inst Arrival.Greedy_burst in
  let params =
    Ddcr_params.with_theta
      (Ddcr_params.with_burst (Ddcr_params.default inst) 65_536)
      4
  in
  let r =
    Recorder.create
      ~bounds:(Feasibility.headroom_bounds (Feasibility.check params inst))
      ()
  in
  let f = Flight.create ~segment:"pin" () in
  let plan = Option.map (fun s -> Fault_plan.create ~seed:101 s) spec in
  let collect, finish = Ddcr_trace.collector () in
  let sink = Sink.tee collect (Sink.tee (Recorder.sink r) (Flight.sink f)) in
  let _ =
    Ddcr.run ?plan ~sink ~seed:1 params inst ~horizon:(4 * ms)
  in
  let events = finish () in
  let text =
    String.concat "\n" (List.map (Format.asprintf "%a" Ddcr_trace.pp_event) events)
  in
  let digest =
    String.concat " "
      [
        short text;
        short (Json.to_string (Recorder.trace_json r));
        short (Json.to_string (Registry.snapshot_to_json (Recorder.snapshot r)));
        short (Json.to_string (Flight.to_json f));
      ]
  in
  (digest, events, Registry.counter_value (Recorder.registry r) "reft/jumps")

let pinned_reports =
  [
    ("trading-4/none", "a84a59675350 719c7525d1d5 3bf7d181e437 be62ecc2ed40");
    ("trading-4/noisy", "4dc63d58fc4e c13b14d71f35 2175bd79c619 efc435f8ac57");
    ("trading-4/all-down", "eaa826d11b66 8718dede8ce2 4f9a7fae8685 6dfabc4496ae");
    ("atm-fabric-4/none", "2173b78b4c3f 2baa54838260 8b06ca647a46 dbfa65601ade");
    ("atm-fabric-4/noisy", "abe73edfa4d3 a93bca77c3fa 8c0cc4e5edda 10fae3d48feb");
    ("atm-fabric-4/all-down", "0444a8d9d541 40d738a6e342 7db7c22b5536 3d457974ae2a");
    ("uniform-0.3/none", "a9cbb4516787 95261f18498d 5f715a0b0e1a 55f3207ad925");
    ("uniform-0.3/noisy", "7507536c1146 e9b84a5a206f aa6fe21af706 6b234a169a5b");
    ("uniform-0.3/all-down", "36f5e53fa199 b1e3f907c62c 327685ff7938 934312ddba9e");
  ]

let test_slot_report_pinned () =
  let events = ref [] and jumps = ref 0 in
  List.iter
    (fun (iname, inst) ->
      List.iter
        (fun (pname, spec) ->
          let name = iname ^ "/" ^ pname in
          let digest, evs, j = slot_report inst spec in
          events := evs @ !events;
          jumps := !jumps + j;
          Alcotest.(check string) name (List.assoc name pinned_reports) digest)
        (pin_plans inst))
    pin_instances;
  let s = Ddcr_trace.summarize !events in
  let via v = Option.value ~default:0 (List.assoc_opt v s.Ddcr_trace.frames_by_via) in
  Alcotest.(check bool) "static tree searches" true (s.Ddcr_trace.sts_count > 0);
  Alcotest.(check bool) "theta jumps" true (!jumps > 0);
  Alcotest.(check bool) "burst frames" true (via Ddcr_trace.Bursting > 0);
  Alcotest.(check bool) "garbled frames" true (s.Ddcr_trace.garbled_slots > 0);
  Alcotest.(check bool) "desync and resync" true
    (s.Ddcr_trace.desyncs > 0 && s.Ddcr_trace.resyncs > 0)

let suite =
  [
    ( "ddcr_trace",
      [
        Alcotest.test_case "totals reconcile" `Quick
          test_totals_reconcile_with_channel;
        Alcotest.test_case "searches balanced" `Quick test_searches_balanced;
        Alcotest.test_case "vias observed" `Quick test_vias_observed;
        Alcotest.test_case "burst frames traced" `Quick test_burst_frames_traced;
        Alcotest.test_case "garbled traced" `Quick test_garbled_traced;
        Alcotest.test_case "printers" `Quick test_printers;
        Alcotest.test_case "slot report pinned" `Quick test_slot_report_pinned;
      ] );
  ]
