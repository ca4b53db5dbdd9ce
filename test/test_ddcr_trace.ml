module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Ddcr_trace = Rtnet_core.Ddcr_trace
module Scenarios = Rtnet_workload.Scenarios
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Run = Rtnet_stats.Run

let ms = 1_000_000

let run_with_trace ?plan inst ~seed ~horizon =
  let params = Ddcr_params.default inst in
  let record, finish = Ddcr_trace.collector () in
  let outcome = Ddcr.run ~on_event:record ?plan ~seed params inst ~horizon in
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
  let record, finish = Ddcr_trace.collector () in
  let _ = Ddcr.run ~on_event:record ~seed:6 params inst ~horizon:(10 * ms) in
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
      ] );
  ]
