module Harness = Rtnet_mac.Harness
module Channel = Rtnet_channel.Channel
module Phy = Rtnet_channel.Phy
module Fault_plan = Rtnet_channel.Fault_plan
module Message = Rtnet_workload.Message
module Run = Rtnet_stats.Run
module Sink = Rtnet_telemetry.Sink

let phy = Phy.classic_ethernet

let cls src =
  {
    Message.cls_id = src;
    cls_name = "c" ^ string_of_int src;
    cls_source = src;
    cls_bits = 1000;
    cls_deadline = 50_000;
    cls_burst = 1;
    cls_window = 50_000;
  }

let msg uid src arrival = { Message.uid; cls = cls src; arrival }

(* The simplest protocol: everyone with a message attempts every slot. *)
let aloha_decide h ~now:_ =
  List.filter_map
    (fun src ->
      Option.map
        (fun m ->
          {
            Channel.att_source = src;
            att_tag = m.Message.uid;
            att_bits = m.Message.cls.Message.cls_bits;
            att_key = (0, src);
          })
        (Harness.peek h src))
    [ 0; 1 ]

let passthrough_after _ ~now:_ ~resolution:_ ~next_free = next_free

let test_single_source_drains () =
  let trace = [ msg 0 0 0; msg 1 0 0; msg 2 0 5_000 ] in
  let o =
    Harness.run ~protocol:"test-aloha" ~phy ~num_sources:2 ~horizon:50_000
      ~decide:aloha_decide ~after:passthrough_after trace
  in
  Alcotest.(check string) "label" "test-aloha" o.Run.protocol;
  Alcotest.(check int) "all delivered" 3 (List.length o.Run.completions);
  Alcotest.(check int) "nothing pending" 0 (List.length o.Run.unfinished);
  (* Frames are back-to-back: 1-persistent sender, 1160-bit frames. *)
  match o.Run.completions with
  | [ a; b; _ ] ->
    Alcotest.(check int) "first at 0" 0 a.Run.c_start;
    Alcotest.(check int) "second immediately after" 1160 b.Run.c_start
  | _ -> Alcotest.fail "expected three completions"

let test_two_sources_livelock_without_backoff () =
  (* Both sources always attempt: every slot collides, nothing is ever
     delivered — and the harness reports it all as unfinished. *)
  let trace = [ msg 0 0 0; msg 1 1 0 ] in
  let o =
    Harness.run ~protocol:"test-aloha" ~phy ~num_sources:2 ~horizon:20_000
      ~decide:aloha_decide ~after:passthrough_after trace
  in
  Alcotest.(check int) "nothing delivered" 0 (List.length o.Run.completions);
  Alcotest.(check int) "both unfinished" 2 (List.length o.Run.unfinished);
  match o.Run.channel with
  | Some st ->
    Alcotest.(check bool) "collisions all the way" true
      (st.Channel.collision_slots > 30)
  | None -> Alcotest.fail "expected stats"

let test_mismatch_detected () =
  (* A protocol that attempts a tag that is not the queue head. *)
  let bad_decide h ~now:_ =
    match Harness.peek h 0 with
    | Some m ->
      [
        {
          Channel.att_source = 0;
          att_tag = m.Message.uid + 999;
          att_bits = 1000;
          att_key = (0, 0);
        };
      ]
    | None -> []
  in
  Alcotest.(check bool) "raises Mismatch" true
    (try
       ignore
         (Harness.run ~protocol:"bad" ~phy ~num_sources:1 ~horizon:10_000
            ~decide:bad_decide ~after:passthrough_after [ msg 0 0 0 ]);
       false
     with Harness.Mismatch _ -> true)

let test_mismatch_diagnostic_format () =
  (* The structured diagnostic carries slot, source and tag, and both
     the formatter and the installed Printexc printer render them. *)
  let m =
    {
      Harness.mm_slot = 4_640;
      mm_source = 2;
      mm_tag = 17;
      mm_reason = "queue head is uid 3";
    }
  in
  Alcotest.(check string) "message format"
    "slot at t=4640: source 2, tag 17: queue head is uid 3"
    (Harness.mismatch_message m);
  Alcotest.(check string) "printexc printer installed"
    ("Rtnet_mac.Harness.Mismatch: " ^ Harness.mismatch_message m)
    (Printexc.to_string (Harness.Mismatch m));
  (* And the harness raises with the offending coordinates filled in. *)
  let bad_decide h ~now:_ =
    match Harness.peek h 0 with
    | Some m ->
      [
        {
          Channel.att_source = 0;
          att_tag = m.Message.uid + 999;
          att_bits = 1000;
          att_key = (0, 0);
        };
      ]
    | None -> []
  in
  match
    Harness.run ~protocol:"bad" ~phy ~num_sources:1 ~horizon:10_000
      ~decide:bad_decide ~after:passthrough_after [ msg 5 0 0 ]
  with
  | (_ : Rtnet_stats.Run.outcome) -> Alcotest.fail "expected Mismatch"
  | exception Harness.Mismatch m ->
    Alcotest.(check int) "source carried" 0 m.Harness.mm_source;
    Alcotest.(check int) "tag carried" (5 + 999) m.Harness.mm_tag

let test_drop_accounting () =
  (* A protocol that drops every message it sees instead of sending. *)
  let drop_decide h ~now:_ =
    (match Harness.pop h 0 with
    | Some m -> Harness.drop h m
    | None -> ());
    []
  in
  let trace = [ msg 0 0 0; msg 1 0 100 ] in
  let o =
    Harness.run ~protocol:"dropper" ~phy ~num_sources:1 ~horizon:10_000
      ~decide:drop_decide ~after:passthrough_after trace
  in
  Alcotest.(check int) "both dropped" 2 (List.length o.Run.dropped);
  Alcotest.(check int) "none delivered" 0 (List.length o.Run.completions);
  Alcotest.(check int) "all count as misses" 2
    (Run.metrics o).Run.deadline_misses

(* The queued count after a run that drops as BEB does: a source
   whose head collides gives it up (pop, then drop). *)
let test_queued_total_after_drops () =
  let trace = List.init 12 (fun i -> msg i (i mod 2) (i * 400)) in
  let after h ~now:_ ~resolution ~next_free =
    (match resolution with
    | Channel.Clash { contenders; survivor = None } ->
      List.iter
        (fun (src, _) ->
          match Harness.pop h src with
          | Some m -> Harness.drop h m
          | None -> ())
        contenders
    | Channel.Idle | Channel.Tx _ | Channel.Garbled _ | Channel.Clash _ -> ());
    next_free
  in
  let h =
    Harness.create ~protocol:"dropper" ~analyze:true ~sink:Sink.null
      ~inject:None ~phy ~num_sources:2 ~horizon:20_000 trace
  in
  while Harness.now h < 20_000 do
    Harness.slot h None h ~decide:aloha_decide ~after
  done;
  let o = Harness.finish h in
  Alcotest.(check bool) "some dropped" true (o.Run.dropped <> []);
  Alcotest.(check bool) "some completed" true (o.Run.completions <> []);
  Alcotest.(check int) "count equals the queues"
    (List.length (Harness.queued h 0) + List.length (Harness.queued h 1))
    (Harness.queued_total h);
  Alcotest.(check int) "every delivered message accounted" 12
    (List.length o.Run.completions + List.length o.Run.dropped
   + Harness.queued_total h + List.length (Harness.pending h))

let test_arrivals_beyond_horizon_excluded () =
  let trace = [ msg 0 0 0; msg 1 0 999_999 ] in
  let o =
    Harness.run ~protocol:"test-aloha" ~phy ~num_sources:2 ~horizon:10_000
      ~decide:aloha_decide ~after:passthrough_after trace
  in
  Alcotest.(check int) "late arrival not reported" 1
    (List.length o.Run.completions + List.length o.Run.unfinished)

let test_after_may_extend_acquisition () =
  (* A bursting protocol: after each Tx it appends the next frame. *)
  let burst_after h ~now:_ ~resolution ~next_free =
    match resolution with
    | Channel.Tx { src; _ } -> (
      match Harness.pop h src with
      | Some m ->
        let on_wire, free =
          Channel.burst (Harness.channel h) ~src ~tag:m.Message.uid
            ~bits:m.Message.cls.Message.cls_bits
        in
        Harness.complete h m ~start:(free - on_wire) ~finish:free;
        free
      | None -> next_free)
    | Channel.Idle | Channel.Garbled _ | Channel.Clash _ -> next_free
  in
  let trace = [ msg 0 0 0; msg 1 0 0 ] in
  let o =
    Harness.run ~protocol:"burster" ~phy ~num_sources:2 ~horizon:50_000
      ~decide:aloha_decide ~after:burst_after trace
  in
  Alcotest.(check int) "both delivered" 2 (List.length o.Run.completions);
  match o.Run.completions with
  | [ a; b ] ->
    Alcotest.(check int) "burst frame contiguous" a.Run.c_finish b.Run.c_start
  | _ -> Alcotest.fail "expected two completions"

let test_inject_merges_into_arrival_stream () =
  (* The federation inject hook: a message handed to the harness
     mid-run is EDF-queued at its arrival time and afterwards
     indistinguishable from a trace arrival. *)
  let injected = ref false in
  let inject ~now =
    if (not !injected) && now >= 10_000 then begin
      injected := true;
      [ msg 7 0 12_000 ]
    end
    else []
  in
  let trace = [ msg 0 0 0 ] in
  let o =
    Harness.run ~protocol:"test-aloha" ~inject ~phy ~num_sources:2
      ~horizon:50_000 ~decide:aloha_decide ~after:passthrough_after trace
  in
  Alcotest.(check int) "trace + injected delivered" 2
    (List.length o.Run.completions);
  match
    List.find_opt (fun c -> c.Run.c_msg.Message.uid = 7) o.Run.completions
  with
  | Some c ->
    Alcotest.(check bool) "served no earlier than its arrival" true
      (c.Run.c_start >= 12_000)
  | None -> Alcotest.fail "injected message not completed"

let test_inject_pending_counts_unfinished () =
  (* An injected message the protocol never manages to serve must be
     accounted exactly like a stranded trace arrival.  Two always-
     attempting aloha sources livelock, so both messages stay pending. *)
  let injected = ref false in
  let inject ~now:_ =
    if !injected then []
    else begin
      injected := true;
      [ msg 9 1 0 ]
    end
  in
  let o =
    Harness.run ~protocol:"test-aloha" ~inject ~phy ~num_sources:2
      ~horizon:20_000 ~decide:aloha_decide ~after:passthrough_after
      [ msg 0 0 0 ]
  in
  Alcotest.(check int) "nothing delivered" 0 (List.length o.Run.completions);
  Alcotest.(check int) "trace + injected pending" 2
    (List.length o.Run.unfinished)

let test_inject_late_counts_unfinished () =
  (* A hand-off arriving after the last slot start but before the
     horizon is never polled by a slot; the outcome must still count
     it, exactly like the same message in the trace.  Idle slots of a
     silent protocol start every 512 bit-times: the last one at 9728. *)
  let horizon = 10_000 in
  let late = msg 4 0 (horizon - 1) in
  let run ~inject trace =
    Harness.run ~protocol:"silent" ?inject ~phy ~num_sources:1 ~horizon
      ~decide:(fun _ ~now:_ -> []) ~after:passthrough_after trace
  in
  let held = ref [ late ] in
  let inject ~now =
    let ready, rest = List.partition (fun m -> m.Message.arrival <= now) !held in
    held := rest;
    ready
  in
  let counts o =
    ( List.length o.Run.completions,
      List.length o.Run.unfinished,
      List.length o.Run.dropped )
  in
  let same = Alcotest.(triple int int int) in
  Alcotest.check same "in the trace" (0, 1, 0) (counts (run ~inject:None [ late ]));
  Alcotest.check same "injected" (0, 1, 0) (counts (run ~inject:(Some inject) []))

let test_inject_while_all_crashed_accounted () =
  (* A federation hand-off arriving while every station of the segment
     is crashed must be queued and served after revival (or reported
     pending) — never silently lost.  Both stations are down during
     [0, 15000); the injected message arrives at 5000. *)
  let plan =
    Fault_plan.create ~seed:3
      (Fault_plan.merge
         [
           Fault_plan.crash ~source:0 ~from_:0 ~until:15_000;
           Fault_plan.crash ~source:1 ~from_:0 ~until:15_000;
         ])
  in
  let injected = ref false in
  let inject ~now =
    if (not !injected) && now >= 2_000 then begin
      injected := true;
      [ msg 7 0 5_000 ]
    end
    else []
  in
  let o =
    Harness.run ~protocol:"test-aloha" ~plan ~inject ~phy ~num_sources:2
      ~horizon:80_000 ~decide:aloha_decide ~after:passthrough_after []
  in
  (match
     List.find_opt (fun c -> c.Run.c_msg.Message.uid = 7) o.Run.completions
   with
  | Some c ->
    Alcotest.(check bool) "served only after the outage" true
      (c.Run.c_start >= 15_000)
  | None ->
    Alcotest.(check bool) "undelivered hand-off reported pending" true
      (List.exists (fun m -> m.Message.uid = 7) o.Run.unfinished));
  match o.Run.faults with
  | Some f ->
    Alcotest.(check int) "both outages on the record" 2
      (List.length
         (List.filter (fun sf -> sf.Run.sf_crashed_slots > 0) f.Run.f_per_source))
  | None -> Alcotest.fail "fault accounting missing under a plan"

let test_inject_unknown_source_rejected () =
  (* A malformed hand-off — a message whose class names a station the
     segment does not have — must be a structured failure, not an
     out-of-bounds write. *)
  let inject ~now = if now = 0 then [ msg 9 5 0 ] else [] in
  match
    Harness.run ~protocol:"test-aloha" ~inject ~phy ~num_sources:2
      ~horizon:10_000 ~decide:aloha_decide ~after:passthrough_after []
  with
  | exception Failure e ->
    Alcotest.(check bool) "diagnostic names the unknown source" true
      (Astring_contains.contains e "unknown source 5")
  | _ -> Alcotest.fail "expected a structured failure"

(* --- [analyze]: every completion is checked against the wire --- *)

(* Protocols whose bookkeeping disagrees with the channel. *)
let silent_decide _ ~now:_ = []

(* Records a completion for a frame the channel never carried. *)
let phantom_after h ~now ~resolution:_ ~next_free =
  (match Harness.pop h 0 with
  | Some m -> Harness.complete h m ~start:now ~finish:(now + 1160)
  | None -> ());
  next_free

(* Bursts the next frame after a carried one and records it — one bit
   short of the wire ([skew = -1]) or not at all ([skew = None]). *)
let burst_after ~skew h ~now:_ ~resolution ~next_free =
  match resolution with
  | Channel.Tx { src; _ } -> (
    match Harness.pop h src with
    | Some m ->
      let on_wire, free =
        Channel.burst (Harness.channel h) ~src ~tag:m.Message.uid
          ~bits:m.Message.cls.Message.cls_bits
      in
      (match skew with
      | Some d ->
        Harness.complete h m ~start:(free - on_wire) ~finish:(free + d)
      | None -> ());
      free
    | None -> next_free)
  | Channel.Idle | Channel.Garbled _ | Channel.Clash _ -> next_free

let analyze_fails ~what run =
  match run ~analyze:true with
  | (_ : Run.outcome) -> Alcotest.fail (what ^ ": expected a failure")
  | exception Failure e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S starts with harness analyze:" what e)
      true
      (String.starts_with ~prefix:"harness analyze: " e);
    (* The same run without the check returns normally. *)
    ignore (run ~analyze:false : Run.outcome)

let test_analyze_uncarried_completion () =
  analyze_fails ~what:"completion never carried" (fun ~analyze ->
      Harness.run ~protocol:"phantom" ~analyze ~phy ~num_sources:1
        ~horizon:10_000 ~decide:silent_decide ~after:phantom_after
        [ msg 0 0 0 ])

let test_analyze_wrong_finish () =
  analyze_fails ~what:"wrong finish" (fun ~analyze ->
      Harness.run ~protocol:"skewed-burst" ~analyze ~phy ~num_sources:2
        ~horizon:50_000 ~decide:aloha_decide
        ~after:(burst_after ~skew:(Some (-1)))
        [ msg 0 0 0; msg 1 0 0 ])

let test_analyze_uncompleted_frame () =
  analyze_fails ~what:"carried frame without completion" (fun ~analyze ->
      Harness.run ~protocol:"silent-burst" ~analyze ~phy ~num_sources:2
        ~horizon:50_000 ~decide:aloha_decide ~after:(burst_after ~skew:None)
        [ msg 0 0 0; msg 1 0 0 ])

(* --- The slot loop: [run] is the simulation engine --- *)

(* Runs [trace] under the ALOHA protocol and returns, in order, the slot
   starts the [slot] probe saw, with the outcome. *)
let slot_starts ?(after = passthrough_after) ~horizon trace =
  let starts = ref [] in
  let sink =
    Sink.create
      ~slot:(fun ~now ~next_free:_ ~resolution:_ -> starts := now :: !starts)
      ()
  in
  let o =
    Harness.run ~protocol:"test-aloha" ~sink ~phy ~num_sources:2 ~horizon
      ~decide:aloha_decide ~after trace
  in
  (List.rev !starts, o)

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | [ _ ] | [] -> true

let spread_trace = [ msg 0 0 0; msg 1 1 3_000; msg 2 0 7_000 ]

let test_engine_run_order () =
  (* Each slot starts at the boundary the previous slot's [after]
     returned; the first starts at 0. *)
  let returned = ref [] in
  let after h ~now ~resolution ~next_free =
    let b = passthrough_after h ~now ~resolution ~next_free in
    returned := b :: !returned;
    b
  in
  let starts, _ = slot_starts ~after ~horizon:20_000 spread_trace in
  let returned = List.rev !returned in
  Alcotest.(check int) "one after per slot" (List.length starts)
    (List.length returned);
  Alcotest.(check (list int)) "chained boundaries" starts
    (0 :: List.filteri (fun i _ -> i < List.length returned - 1) returned);
  Alcotest.(check bool) "chronological" true (strictly_increasing starts)

let test_engine_run_until () =
  (* Slots start only before the horizon, and the run ends at the first
     boundary at or past it; a longer horizon replays the same slots
     and continues from there. *)
  let short, _ = slot_starts ~horizon:5_000 spread_trace in
  let long, o = slot_starts ~horizon:12_000 spread_trace in
  Alcotest.(check bool) "short run before its horizon" true
    (List.for_all (fun t -> t < 5_000) short);
  Alcotest.(check bool) "long run before its horizon" true
    (List.for_all (fun t -> t < 12_000) long);
  let n = List.length short in
  Alcotest.(check (list int)) "short run is a prefix" short
    (List.filteri (fun i _ -> i < n) long);
  Alcotest.(check bool) "next slot of the long run is past 5000" true
    (List.nth long n >= 5_000);
  Alcotest.(check int) "every message served" 3
    (List.length o.Run.completions)

let test_engine_until_boundary () =
  (* A horizon landing exactly on a slot boundary excludes the slot
     starting there; one bit-time later includes it, and it is the
     last. *)
  let all, _ = slot_starts ~horizon:20_000 spread_trace in
  let b = List.nth all 5 in
  let at, _ = slot_starts ~horizon:b spread_trace in
  let after_b, _ = slot_starts ~horizon:(b + 1) spread_trace in
  Alcotest.(check (list int)) "exclusive boundary"
    (List.filteri (fun i _ -> i < 5) all)
    at;
  Alcotest.(check (list int)) "one bit-time later"
    (List.filteri (fun i _ -> i <= 5) all)
    after_b;
  (* Re-running with the same bound is deterministic. *)
  let again, _ = slot_starts ~horizon:b spread_trace in
  Alcotest.(check (list int)) "idempotent" at again

let test_engine_until_empty_queue () =
  (* With nothing to send the loop still idles slot by slot up to the
     horizon; the slot at time 0 always runs. *)
  let slot = phy.Phy.slot_bits in
  let starts, o = slot_starts ~horizon:(10 * slot) [] in
  Alcotest.(check (list int)) "idle slots to the horizon"
    (List.init 10 (fun i -> i * slot))
    starts;
  (match o.Run.channel with
  | Some st ->
    Alcotest.(check int) "all idle" 10 st.Channel.idle_slots;
    Alcotest.(check int) "nothing carried" 0 st.Channel.tx_count
  | None -> Alcotest.fail "expected stats");
  Alcotest.(check int) "nothing processed" 0 (List.length o.Run.completions);
  let starts, _ = slot_starts ~horizon:0 [] in
  Alcotest.(check (list int)) "slot 0 runs at horizon 0" [ 0 ] starts

type probe = Enqueue of int | Slot of int | Complete of int

let test_engine_step () =
  (* Each slot's probes come in order, all at the slot's start: its
     arrivals, exactly one channel resolution, then the completion of
     the carried frame, if any. *)
  let log = ref [] in
  let note p = log := p :: !log in
  let sink =
    Sink.create
      ~enqueue:(fun ~now ~msg:_ -> note (Enqueue now))
      ~slot:(fun ~now ~next_free:_ ~resolution:_ -> note (Slot now))
      ~complete:(fun ~msg:_ ~start ~finish:_ -> note (Complete start))
      ()
  in
  let o =
    Harness.run ~protocol:"test-aloha" ~sink ~phy ~num_sources:2
      ~horizon:20_000 ~decide:aloha_decide ~after:passthrough_after
      spread_trace
  in
  let rec slots n = function
    | [] -> n
    | log ->
      let rec enqueued = function
        | Enqueue t :: rest ->
          let t', rest = enqueued rest in
          Alcotest.(check int) "arrival in its slot" t' t;
          (t', rest)
        | Slot t :: rest -> (t, rest)
        | Complete _ :: _ | [] -> Alcotest.fail "a slot without a resolution"
      in
      let t, rest = enqueued log in
      let rec completed = function
        | Complete s :: rest ->
          Alcotest.(check int) "frame starts with its slot" t s;
          completed rest
        | rest -> rest
      in
      slots (n + 1) (completed rest)
  in
  let n = slots 0 (List.rev !log) in
  let st = Option.get o.Run.channel in
  Alcotest.(check int) "one step per slot"
    (st.Channel.idle_slots + st.Channel.collision_slots + st.Channel.tx_count
   + st.Channel.garbled_count)
    n

let test_engine_stop_inside_callback () =
  (* [after] ends the run from inside a slot by returning a boundary at
     the horizon: the frame carried in that slot still completes, no
     further slot runs, and the rest of the queue is unfinished. *)
  let horizon = 50_000 in
  let stop _ ~now:_ ~resolution ~next_free =
    match resolution with
    | Channel.Tx _ -> horizon
    | Channel.Idle | Channel.Garbled _ | Channel.Clash _ -> next_free
  in
  let starts, o =
    slot_starts ~after:stop ~horizon [ msg 0 0 0; msg 1 0 0; msg 2 0 0 ]
  in
  Alcotest.(check (list int)) "only the stopping slot ran" [ 0 ] starts;
  Alcotest.(check int) "its frame completed" 1 (List.length o.Run.completions);
  Alcotest.(check int) "the rest unfinished" 2 (List.length o.Run.unfinished)

let suite =
  [
    ( "mac_harness",
      [
        Alcotest.test_case "single source drains" `Quick test_single_source_drains;
        Alcotest.test_case "livelock reported" `Quick
          test_two_sources_livelock_without_backoff;
        Alcotest.test_case "mismatch detected" `Quick test_mismatch_detected;
        Alcotest.test_case "mismatch diagnostic format" `Quick
          test_mismatch_diagnostic_format;
        Alcotest.test_case "drop accounting" `Quick test_drop_accounting;
        Alcotest.test_case "horizon exclusion" `Quick
          test_arrivals_beyond_horizon_excluded;
        Alcotest.test_case "burst extension" `Quick
          test_after_may_extend_acquisition;
        Alcotest.test_case "inject hook" `Quick
          test_inject_merges_into_arrival_stream;
        Alcotest.test_case "inject pending unfinished" `Quick
          test_inject_pending_counts_unfinished;
        Alcotest.test_case "inject late in the horizon unfinished" `Quick
          test_inject_late_counts_unfinished;
        Alcotest.test_case "inject while all crashed" `Quick
          test_inject_while_all_crashed_accounted;
        Alcotest.test_case "inject unknown source" `Quick
          test_inject_unknown_source_rejected;
        Alcotest.test_case "analyze: uncarried completion" `Quick
          test_analyze_uncarried_completion;
        Alcotest.test_case "analyze: wrong finish" `Quick
          test_analyze_wrong_finish;
        Alcotest.test_case "analyze: uncompleted frame" `Quick
          test_analyze_uncompleted_frame;
        Alcotest.test_case "queued count after drops" `Quick
          test_queued_total_after_drops;
      ] );
    ( "engine",
      [
        Alcotest.test_case "run order" `Quick test_engine_run_order;
        Alcotest.test_case "run until" `Quick test_engine_run_until;
        Alcotest.test_case "until boundary" `Quick test_engine_until_boundary;
        Alcotest.test_case "until empty queue" `Quick
          test_engine_until_empty_queue;
        Alcotest.test_case "step" `Quick test_engine_step;
        Alcotest.test_case "stop inside callback" `Quick
          test_engine_stop_inside_callback;
      ] );
  ]
