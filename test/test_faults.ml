(* Fault injection: a fault plan's i.i.d. wire garbling destroys lone
   frames (full-length CRC-error model); protocols must stay safe and
   retry. *)

module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Phy = Rtnet_channel.Phy
module Scenarios = Rtnet_workload.Scenarios
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Run = Rtnet_stats.Run
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Beb = Rtnet_baselines.Csma_cd_beb

let ms = 1_000_000

let attempt src bits =
  { Channel.att_source = src; att_tag = src; att_bits = bits; att_key = (0, src) }

let iid ~seed rate = Fault_plan.create ~seed (Fault_plan.iid rate)

(* One slot under [plan], with the start of the next one. *)
let contend ch plan ~now attempts =
  let res = Channel.contend ch (Some plan) ~now attempts in
  (res, Channel.free_at ch)

let test_channel_always_garbles_at_rate_one () =
  let plan = iid ~seed:1 1.0 in
  let ch = Channel.create Phy.classic_ethernet in
  let res, next = contend ch plan ~now:0 [ attempt 0 1000 ] in
  (match res with
  | Channel.Garbled { on_wire } ->
    Alcotest.(check int) "full frame occupied" 1160 on_wire;
    Alcotest.(check int) "medium busy" 1160 next
  | Channel.Idle | Channel.Tx _ | Channel.Clash _ ->
    Alcotest.fail "expected Garbled");
  Alcotest.(check int) "counted" 1 (Channel.stats ch).Channel.garbled_count;
  Alcotest.(check int) "nothing carried" 0 (Channel.stats ch).Channel.tx_count

let test_channel_rate_zero_is_clean () =
  let plan = iid ~seed:1 0.0 in
  let ch = Channel.create Phy.classic_ethernet in
  for i = 0 to 9 do
    let res, next = contend ch plan ~now:(i * 1160) [ attempt 0 1000 ] in
    ignore next;
    match res with
    | Channel.Tx _ -> ()
    | Channel.Idle | Channel.Garbled _ | Channel.Clash _ ->
      Alcotest.fail "expected Tx"
  done

let test_ddcr_survives_noise () =
  (* 20% frame loss on a lightly loaded segment: everything is still
     delivered (retries), safety and lockstep hold, and the noisy run
     is strictly slower than the clean one. *)
  let inst = Scenarios.videoconference ~stations:4 in
  let params = Ddcr_params.default inst in
  let horizon = 40 * ms in
  let trace = Instance.trace inst ~seed:5 ~horizon in
  let clean = Ddcr.run_trace ~check_lockstep:true params inst trace ~horizon in
  let noisy =
    Ddcr.run_trace ~check_lockstep:true ~plan:(iid ~seed:7 0.2) params inst
      trace ~horizon
  in
  Alcotest.(check int) "all delivered despite noise"
    (List.length clean.Run.completions)
    (List.length noisy.Run.completions);
  (match noisy.Run.channel with
  | Some st ->
    Alcotest.(check bool) "garbled frames occurred" true
      (st.Channel.garbled_count > 0)
  | None -> Alcotest.fail "expected stats");
  let worst o = (Run.metrics o).Run.worst_latency in
  Alcotest.(check bool) "noise costs latency" true (worst noisy > worst clean)

let test_ddcr_noise_deterministic () =
  let inst = Scenarios.trading ~gateways:3 in
  let params = Ddcr_params.default inst in
  let horizon = 10 * ms in
  let key o =
    List.map (fun c -> (c.Run.c_msg.Message.uid, c.Run.c_start)) o.Run.completions
  in
  let run () = Ddcr.run ~plan:(iid ~seed:11 0.1) ~seed:4 params inst ~horizon in
  let o1 = run () in
  let o2 = run () in
  Alcotest.(check (list (pair int int))) "replayable" (key o1) (key o2)

let test_beb_survives_noise () =
  let inst = Scenarios.trading ~gateways:3 in
  let horizon = 10 * ms in
  let trace = Instance.trace inst ~seed:8 ~horizon in
  let o = Beb.run_trace ~plan:(iid ~seed:3 0.15) ~seed:8 inst trace ~horizon in
  Alcotest.(check int) "conservation"
    (List.length trace)
    (List.length o.Run.completions
    + List.length o.Run.unfinished
    + List.length o.Run.dropped);
  match o.Run.channel with
  | Some st ->
    Alcotest.(check bool) "garbled occurred" true (st.Channel.garbled_count > 0)
  | None -> Alcotest.fail "expected stats"

let prop_garble_rate_tracks_parameter =
  QCheck.Test.make ~name:"observed garble ratio tracks fault_rate" ~count:20
    QCheck.(pair (int_range 1 1000) (int_range 1 9))
    (fun (seed, tenths) ->
      let rate = float_of_int tenths /. 10. in
      let plan = iid ~seed rate in
      let ch = Channel.create Phy.classic_ethernet in
      let n = 2000 in
      let garbled = ref 0 in
      let now = ref 0 in
      for i = 0 to n - 1 do
        let res, next = contend ch plan ~now:!now [ attempt (i mod 3) 1000 ] in
        (match res with
        | Channel.Garbled _ -> incr garbled
        | Channel.Idle | Channel.Tx _ | Channel.Clash _ -> ());
        now := next
      done;
      let observed = float_of_int !garbled /. float_of_int n in
      abs_float (observed -. rate) < 0.05)

let suite =
  [
    ( "faults",
      [
        Alcotest.test_case "rate 1 garbles" `Quick
          test_channel_always_garbles_at_rate_one;
        Alcotest.test_case "rate 0 clean" `Quick test_channel_rate_zero_is_clean;
        Alcotest.test_case "ddcr survives noise" `Slow test_ddcr_survives_noise;
        Alcotest.test_case "noise deterministic" `Quick test_ddcr_noise_deterministic;
        Alcotest.test_case "beb survives noise" `Quick test_beb_survives_noise;
        QCheck_alcotest.to_alcotest prop_garble_rate_tracks_parameter;
      ] );
  ]
