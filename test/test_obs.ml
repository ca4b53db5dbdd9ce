(* rtnet.obs: the black-box flight recorder, the cross-segment causal
   flow tracer and the postmortem artifact — plus the Sink.tee fan-out
   and the flow-chain extension of the trace-event validator they ride
   on. *)

module Json = Rtnet_util.Json
module Sink = Rtnet_telemetry.Sink
module Trace_event = Rtnet_telemetry.Trace_event
module Channel = Rtnet_channel.Channel
module Message = Rtnet_workload.Message
module Fault_plan = Rtnet_channel.Fault_plan
module Topo = Rtnet_topology.Topo
module Admit = Rtnet_topology.Admit
module Driver = Rtnet_topology.Driver
module Ring = Rtnet_obs.Ring
module Flight = Rtnet_obs.Flight
module Causal = Rtnet_obs.Causal
module Postmortem = Rtnet_obs.Postmortem

let ms = 1_000_000

let msg ~uid ~cls_id ~arrival =
  {
    Message.uid;
    cls =
      {
        Message.cls_id;
        cls_name = Printf.sprintf "c%d" cls_id;
        cls_source = 0;
        cls_bits = 1000;
        cls_deadline = 50_000;
        cls_burst = 1;
        cls_window = 100_000;
      };
    arrival;
  }

(* -------------------- ring -------------------- *)

let test_ring_basics () =
  let r = Ring.create ~capacity:4 in
  Alcotest.(check int) "capacity" 4 (Ring.capacity r);
  Alcotest.(check int) "empty" 0 (Ring.length r);
  for i = 1 to 3 do
    Ring.push r ~kind:0 ~t0:i ~t1:(i + 1) ~a:i ~b:0
  done;
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "recorded" 3 (Ring.recorded r);
  Alcotest.(check int) "nothing overwritten" 0 (Ring.overwritten r);
  let seen = ref [] in
  Ring.iter_oldest_first r (fun ~kind:_ ~t0 ~t1:_ ~a:_ ~b:_ ->
      seen := t0 :: !seen);
  Alcotest.(check (list int)) "push order" [ 1; 2; 3 ] (List.rev !seen)

let test_ring_wraps () =
  let r = Ring.create ~capacity:3 in
  for i = 1 to 8 do
    Ring.push r ~kind:i ~t0:i ~t1:i ~a:0 ~b:0
  done;
  Alcotest.(check int) "holds capacity" 3 (Ring.length r);
  Alcotest.(check int) "recorded is monotone" 8 (Ring.recorded r);
  Alcotest.(check int) "overwritten" 5 (Ring.overwritten r);
  let seen = ref [] in
  Ring.iter_oldest_first r (fun ~kind:_ ~t0 ~t1:_ ~a:_ ~b:_ ->
      seen := t0 :: !seen);
  (* The most recent [capacity] events survive, oldest first. *)
  Alcotest.(check (list int)) "last three" [ 6; 7; 8 ] (List.rev !seen);
  (match Ring.create ~capacity:0 with
  | (_ : Ring.t) -> Alcotest.fail "zero capacity accepted"
  | exception Invalid_argument _ -> ())

(* -------------------- flight recorder -------------------- *)

let test_flight_records_and_dumps () =
  let f = Flight.create ~capacity:8 ~segment:"segA" () in
  let s = Flight.sink f in
  Alcotest.(check bool) "sink enabled" true s.Sink.enabled;
  s.Sink.slot ~now:0 ~next_free:512 ~resolution:Channel.Idle;
  s.Sink.enqueue ~now:600 ~msg:(msg ~uid:7 ~cls_id:2 ~arrival:600);
  s.Sink.complete ~msg:(msg ~uid:7 ~cls_id:2 ~arrival:600) ~start:1024
    ~finish:2048;
  s.Sink.drop ~msg:(msg ~uid:9 ~cls_id:3 ~arrival:700);
  s.Sink.epoch ~start:100 ~finish:200;
  (* DDCR's marks are not black-box material. *)
  s.Sink.mark ~time:0 (Sink.Tts_begin { reft = 0 });
  s.Sink.mark ~time:42 Sink.Free;
  Alcotest.(check int) "five events recorded" 5 (Flight.recorded f);
  match Flight.to_json f with
  | Json.Obj fields ->
    Alcotest.(check string)
      "segment label" "segA"
      (match List.assoc "segment" fields with
      | Json.String s -> s
      | _ -> "?");
    let events =
      match List.assoc "events" fields with Json.List l -> l | _ -> []
    in
    let kinds =
      List.map
        (fun e ->
          match e with
          | Json.Obj fs -> (
            match List.assoc "k" fs with Json.String k -> k | _ -> "?")
          | _ -> "?")
        events
    in
    Alcotest.(check (list string))
      "event kinds in push order"
      [ "idle"; "enqueue"; "complete"; "drop"; "epoch" ]
      kinds
  | _ -> Alcotest.fail "flight dump is not an object"

(* -------------------- Sink.tee -------------------- *)

let counting_sink hits =
  Sink.create
    ~slot:(fun ~now:_ ~next_free:_ ~resolution:_ -> incr hits)
    ~enqueue:(fun ~now:_ ~msg:_ -> incr hits)
    ~complete:(fun ~msg:_ ~start:_ ~finish:_ -> incr hits)
    ~drop:(fun ~msg:_ -> incr hits)
    ~epoch:(fun ~start:_ ~finish:_ -> incr hits)
    ()

let test_tee_fans_out () =
  let a = ref 0 and b = ref 0 in
  let t = Sink.tee (counting_sink a) (counting_sink b) in
  Alcotest.(check bool) "tee of enabled sinks is enabled" true t.Sink.enabled;
  t.Sink.slot ~now:0 ~next_free:1 ~resolution:Channel.Idle;
  t.Sink.enqueue ~now:0 ~msg:(msg ~uid:1 ~cls_id:0 ~arrival:0);
  t.Sink.drop ~msg:(msg ~uid:1 ~cls_id:0 ~arrival:0);
  Alcotest.(check int) "left saw all three" 3 !a;
  Alcotest.(check int) "right saw all three" 3 !b

let test_tee_elides_disabled () =
  let a = ref 0 in
  let live = counting_sink a in
  Alcotest.(check bool) "tee null null is disabled" false
    (Sink.tee Sink.null Sink.null).Sink.enabled;
  let left = Sink.tee live Sink.null in
  let right = Sink.tee Sink.null live in
  left.Sink.drop ~msg:(msg ~uid:1 ~cls_id:0 ~arrival:0);
  right.Sink.drop ~msg:(msg ~uid:1 ~cls_id:0 ~arrival:0);
  Alcotest.(check int) "both single-operand tees forward" 2 !a

(* -------------------- flow validation -------------------- *)

let test_flow_chain_validates () =
  let t = Trace_event.create () in
  Trace_event.flow_start t ~pid:0 ~tid:10 ~name:"flow1#3" ~cat:"chain" ~ts:100
    ~id:1 ();
  Trace_event.flow_step t ~pid:2 ~tid:11 ~name:"flow1#3" ~cat:"chain" ~ts:200
    ~id:1 ();
  Trace_event.flow_end t ~pid:4 ~tid:12 ~name:"flow1#3" ~cat:"chain" ~ts:300
    ~id:1 ();
  match Trace_event.validate (Trace_event.to_json t) with
  | Ok n -> Alcotest.(check int) "three flow events checked" 3 n
  | Error e -> Alcotest.fail e

let expect_invalid label j =
  match Trace_event.validate j with
  | Ok _ -> Alcotest.fail (label ^ ": accepted an invalid flow chain")
  | Error _ -> ()

let test_flow_chain_rejects () =
  (* Unterminated: s without f. *)
  let t = Trace_event.create () in
  Trace_event.flow_start t ~pid:0 ~tid:10 ~name:"x" ~cat:"chain" ~ts:0 ~id:1 ();
  expect_invalid "unterminated" (Trace_event.to_json t);
  (* Opening with a step. *)
  let t = Trace_event.create () in
  Trace_event.flow_step t ~pid:0 ~tid:10 ~name:"x" ~cat:"chain" ~ts:0 ~id:2 ();
  Trace_event.flow_end t ~pid:0 ~tid:10 ~name:"x" ~cat:"chain" ~ts:1 ~id:2 ();
  expect_invalid "no start" (Trace_event.to_json t);
  (* Backwards time. *)
  let t = Trace_event.create () in
  Trace_event.flow_start t ~pid:0 ~tid:10 ~name:"x" ~cat:"chain" ~ts:50 ~id:3 ();
  Trace_event.flow_end t ~pid:0 ~tid:10 ~name:"x" ~cat:"chain" ~ts:40 ~id:3 ();
  expect_invalid "backwards ts" (Trace_event.to_json t)

(* -------------------- driver integration -------------------- *)

(* A tight 3-segment tree whose bridge ingress stations both crash:
   degraded-mode shedding guarantees a failure verdict, which is what
   the postmortem pipeline needs to exercise end to end. *)
let failing_elaboration () =
  let topo =
    Topo.tree ~name:"obs-tree" ~segments:3 ~fanout:2 ~sources:4 ~load:0.2
      ~deadline_windows:2.0 ()
  in
  let crash s =
    Fault_plan.crash ~source:s ~from_:100_000 ~until:2_500_000
  in
  let plan =
    { (crash 4) with Fault_plan.sp_crashes =
        (crash 4).Fault_plan.sp_crashes @ (crash 5).Fault_plan.sp_crashes }
  in
  let topo =
    match Topo.with_faults topo [ ("seg0", plan) ] with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  match Admit.elaborate topo with
  | Ok e -> e
  | Error e -> Alcotest.fail e

let run_with_flights ~domains e =
  let flights = ref [] in
  let sink_for ~index ~segment =
    let f = Flight.create ~segment () in
    flights := (index, f) :: !flights;
    Flight.sink f
  in
  match Driver.run_seeded ~domains ~sink_for e ~seed:5 ~horizon:(3 * ms) with
  | Error e -> Alcotest.fail e
  | Ok res -> (res, List.map snd (List.sort compare !flights))

let test_postmortem_roundtrip () =
  let e = failing_elaboration () in
  let res, flights = run_with_flights ~domains:1 e in
  let trigger =
    match Postmortem.trigger_of_result res with
    | Some t -> t
    | None -> Alcotest.fail "seeded fault run produced a clean verdict"
  in
  let pm =
    Postmortem.build ~trigger ~topology:"obs-tree" ~seed:5 ~fault_seed:99
      ~horizon:(3 * ms) ~result:res ~flights
      ~repro:("note", "fingerprint") ()
  in
  let j = Json.to_string (Postmortem.to_json pm) in
  match Postmortem.of_json (Result.get_ok (Json.parse j)) with
  | Error err -> Alcotest.fail err
  | Ok pm' ->
    Alcotest.(check string)
      "round-trip is canonical" j
      (Json.to_string (Postmortem.to_json pm'));
    Alcotest.(check string)
      "fingerprint preserved" res.Driver.r_fingerprint pm'.Postmortem.pm_fingerprint;
    Alcotest.(check bool)
      "repro cross-link preserved" true
      (pm'.Postmortem.pm_repro = Some ("note", "fingerprint"))

let test_sharded_flight_determinism () =
  (* The tentpole's domain-sharding contract: per-segment recorders
     attached through sink_for must dump identically whether the
     wavefront ran on one domain or three, and so must the postmortem
     built from them. *)
  let e = failing_elaboration () in
  let res1, fl1 = run_with_flights ~domains:1 e in
  let res3, fl3 = run_with_flights ~domains:3 e in
  Alcotest.(check string)
    "fingerprints agree" res1.Driver.r_fingerprint res3.Driver.r_fingerprint;
  List.iter2
    (fun a b ->
      Alcotest.(check string)
        ("flight dump " ^ Flight.segment a)
        (Json.to_string (Flight.to_json a))
        (Json.to_string (Flight.to_json b)))
    fl1 fl3;
  let pm domains res flights =
    let trigger =
      match Postmortem.trigger_of_result res with
      | Some t -> t
      | None -> Alcotest.fail (Printf.sprintf "clean at domains=%d" domains)
    in
    Json.to_string
      (Postmortem.to_json
         (Postmortem.build ~trigger ~topology:"obs-tree" ~seed:5 ~fault_seed:99
            ~horizon:(3 * ms) ~result:res ~flights ()))
  in
  Alcotest.(check string)
    "postmortems byte-identical" (pm 1 res1 fl1) (pm 3 res3 fl3)

let test_causal_stitch () =
  let e = failing_elaboration () in
  let res, _ = run_with_flights ~domains:1 e in
  let flows = Trace_event.create () in
  let stitched =
    Causal.stitch ~into:flows ~seg_pid:(fun ~segment:_ -> 0)
      ~chains:res.Driver.r_chains
  in
  Alcotest.(check bool) "some chains stitched" true (stitched > 0);
  match Trace_event.validate (Trace_event.to_json flows) with
  | Ok n -> Alcotest.(check bool) "flow events checked" true (n >= 2 * stitched)
  | Error err -> Alcotest.fail err

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "ring basics" `Quick test_ring_basics;
        Alcotest.test_case "ring wraps" `Quick test_ring_wraps;
        Alcotest.test_case "flight records and dumps" `Quick
          test_flight_records_and_dumps;
        Alcotest.test_case "tee fans out" `Quick test_tee_fans_out;
        Alcotest.test_case "tee elides disabled" `Quick
          test_tee_elides_disabled;
        Alcotest.test_case "flow chain validates" `Quick
          test_flow_chain_validates;
        Alcotest.test_case "flow chain rejects" `Quick test_flow_chain_rejects;
        Alcotest.test_case "postmortem round-trip" `Quick
          test_postmortem_roundtrip;
        Alcotest.test_case "sharded flight determinism" `Quick
          test_sharded_flight_determinism;
        Alcotest.test_case "causal stitch validates" `Quick test_causal_stitch;
      ] );
  ]
