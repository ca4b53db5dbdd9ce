module Phy = Rtnet_channel.Phy
module Channel = Rtnet_channel.Channel

let attempt ?(key = (0, 0)) src bits =
  { Channel.att_source = src; att_tag = 100 + src; att_bits = bits; att_key = key }

(* A fault-free slot, with the start of the next one. *)
let contend ch ~now attempts =
  let res = Channel.contend ch None ~now attempts in
  (res, Channel.free_at ch)

let test_idle () =
  let ch = Channel.create Phy.gigabit_ethernet in
  let res, next = contend ch ~now:0 [] in
  Alcotest.(check bool) "idle" true (res = Channel.Idle);
  Alcotest.(check int) "advances one slot" 4096 next;
  Alcotest.(check int) "idle counted" 1 (Channel.stats ch).Channel.idle_slots

let test_single_tx () =
  let ch = Channel.create Phy.gigabit_ethernet in
  let res, next = contend ch ~now:0 [ attempt 3 12_000 ] in
  (match res with
  | Channel.Tx { src; tag; on_wire } ->
    Alcotest.(check int) "src" 3 src;
    Alcotest.(check int) "tag" 103 tag;
    Alcotest.(check int) "on wire" 12_160 on_wire
  | Channel.Idle | Channel.Garbled _ | Channel.Clash _ -> Alcotest.fail "expected Tx");
  Alcotest.(check int) "busy until end of frame" 12_160 next;
  Alcotest.(check int) "tx counted" 1 (Channel.stats ch).Channel.tx_count

let test_destructive_clash () =
  let ch = Channel.create Phy.gigabit_ethernet in
  let res, next = contend ch ~now:0 [ attempt 1 4000; attempt 2 4000 ] in
  (match res with
  | Channel.Clash { contenders; survivor } ->
    Alcotest.(check int) "two contenders" 2 (List.length contenders);
    Alcotest.(check bool) "destroyed" true (survivor = None)
  | Channel.Idle | Channel.Tx _ | Channel.Garbled _ -> Alcotest.fail "expected Clash");
  Alcotest.(check int) "one slot burned" 4096 next;
  Alcotest.(check int) "collision counted" 1
    (Channel.stats ch).Channel.collision_slots

let test_arbitrated_clash () =
  let ch = Channel.create Phy.atm_bus in
  let res, next =
    contend ch ~now:0
      [ attempt ~key:(900, 0) 1 384; attempt ~key:(100, 0) 2 384 ]
  in
  (match res with
  | Channel.Clash { survivor = Some (src, tag, on_wire); _ } ->
    Alcotest.(check int) "smallest key wins" 2 src;
    Alcotest.(check int) "its tag" 102 tag;
    Alcotest.(check int) "cell carried" 424 on_wire
  | Channel.Clash { survivor = None; _ }
  | Channel.Idle | Channel.Tx _ | Channel.Garbled _ ->
    Alcotest.fail "expected arbitrated survivor");
  Alcotest.(check int) "slot + cell" (8 + 424) next

let test_arbitration_key_tie_breaks_by_source () =
  let ch = Channel.create Phy.atm_bus in
  let res, _ =
    contend ch ~now:0
      [ attempt ~key:(100, 0) 7 384; attempt ~key:(100, 0) 3 384 ]
  in
  match res with
  | Channel.Clash { survivor = Some (src, _, _); _ } ->
    Alcotest.(check int) "lower source id wins ties" 3 src
  | Channel.Clash { survivor = None; _ }
  | Channel.Idle | Channel.Tx _ | Channel.Garbled _ ->
    Alcotest.fail "expected survivor"

let test_busy_rejected () =
  let ch = Channel.create Phy.gigabit_ethernet in
  let _, next = contend ch ~now:0 [ attempt 1 8000 ] in
  Alcotest.check_raises "before free" (Invalid_argument "Channel.contend: channel busy")
    (fun () -> ignore (contend ch ~now:(next - 1) []));
  let res, _ = contend ch ~now:next [] in
  Alcotest.(check bool) "free again" true (res = Channel.Idle)

let test_duplicate_source_rejected () =
  let ch = Channel.create Phy.gigabit_ethernet in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Channel.contend: duplicate source in slot") (fun () ->
      ignore (contend ch ~now:0 [ attempt 1 4000; attempt 1 4000 ]));
  Alcotest.check_raises "duplicate, not adjacent"
    (Invalid_argument "Channel.contend: duplicate source in slot") (fun () ->
      ignore
        (contend ch ~now:0
           [ attempt 3 4000; attempt 1 4000; attempt 2 4000; attempt 3 4000 ]))

let test_safety_log () =
  let ch = Channel.create Phy.gigabit_ethernet in
  let last = Channel.last_carried ch in
  Alcotest.(check int) "nothing carried yet" (-1) last.Channel.c_src;
  let _, n1 = contend ch ~now:0 [ attempt 1 8000 ] in
  let _, n2 = contend ch ~now:n1 [ attempt 2 8000 ] in
  Alcotest.(check int) "two carried" 2 (Channel.stats ch).Channel.tx_count;
  (* The record is updated in place: the handle taken before the run
     now describes the second frame, back to back with the first. *)
  Alcotest.(check (list int)) "last carried frame" [ 2; 102; n1; n2 ]
    [
      last.Channel.c_src;
      last.Channel.c_tag;
      last.Channel.c_start;
      last.Channel.c_finish;
    ]

let test_stats_snapshot () =
  let ch = Channel.create Phy.gigabit_ethernet in
  let _, n1 = contend ch ~now:0 [ attempt 1 8000 ] in
  let snap = Channel.stats ch in
  let counters st =
    [
      st.Channel.idle_slots;
      st.Channel.collision_slots;
      st.Channel.tx_count;
      st.Channel.garbled_count;
      st.Channel.busy_bits;
      st.Channel.total_bits;
    ]
  in
  let before = counters snap in
  let _, n2 = contend ch ~now:n1 [ attempt 1 4000; attempt 2 4000 ] in
  let _, n3 = contend ch ~now:n2 [] in
  let _, _ = contend ch ~now:n3 [ attempt 2 8000 ] in
  let _ = Channel.burst ch ~src:2 ~tag:9 ~bits:1000 in
  Alcotest.(check (list int)) "snapshot unchanged by later slots" before
    (counters snap);
  Alcotest.(check (list int)) "snapshot taken after one frame"
    [ 0; 0; 1; 0; n1; n1 ] before;
  Alcotest.(check int) "fresh snapshot counts all three frames" 3
    (Channel.stats ch).Channel.tx_count;
  Alcotest.(check int) "tx_count agrees" 3 (Channel.tx_count ch)

let test_utilization () =
  let ch = Channel.create Phy.gigabit_ethernet in
  let _, n1 = contend ch ~now:0 [ attempt 1 12_000 ] in
  let _, _ = contend ch ~now:n1 [] in
  let u = Channel.utilization ch in
  Alcotest.(check bool) "between 0 and 1" true (u > 0.7 && u < 1.0)

let test_burst_extends_acquisition () =
  let ch = Channel.create Phy.gigabit_ethernet in
  let _, n1 = contend ch ~now:0 [ attempt 1 8000 ] in
  let on_wire, n2 = Channel.burst ch ~src:1 ~tag:7 ~bits:5000 in
  Alcotest.(check int) "second frame appended" (n1 + on_wire) n2;
  Alcotest.(check int) "both carried" 2 (Channel.stats ch).Channel.tx_count;
  Alcotest.(check (pair int int)) "burst frame is the last carried"
    (n1, n2)
    ((Channel.last_carried ch).Channel.c_start,
     (Channel.last_carried ch).Channel.c_finish);
  (* Only the holder may burst, and only until the next contention. *)
  Alcotest.check_raises "stranger"
    (Invalid_argument "Channel.burst: source does not hold the channel")
    (fun () -> ignore (Channel.burst ch ~src:2 ~tag:8 ~bits:1000));
  let _, _ = contend ch ~now:n2 [] in
  Alcotest.check_raises "after idle slot"
    (Invalid_argument "Channel.burst: source does not hold the channel")
    (fun () -> ignore (Channel.burst ch ~src:1 ~tag:9 ~bits:1000))

let prop_resolution_cases =
  QCheck.Test.make ~name:"resolution matches attempt count" ~count:300
    QCheck.(int_range 0 8)
    (fun n ->
      let ch = Channel.create Phy.classic_ethernet in
      let attempts = List.init n (fun i -> attempt i 1000) in
      let res, _ = contend ch ~now:0 attempts in
      match (n, res) with
      | 0, Channel.Idle -> true
      | 1, Channel.Tx _ -> true
      | _, Channel.Clash { contenders; _ } -> List.length contenders = n
      | (0 | 1), _ | _, (Channel.Idle | Channel.Tx _ | Channel.Garbled _) ->
        false)

let suite =
  [
    ( "channel",
      [
        Alcotest.test_case "idle" `Quick test_idle;
        Alcotest.test_case "single tx" `Quick test_single_tx;
        Alcotest.test_case "destructive clash" `Quick test_destructive_clash;
        Alcotest.test_case "arbitrated clash" `Quick test_arbitrated_clash;
        Alcotest.test_case "arbitration tie" `Quick
          test_arbitration_key_tie_breaks_by_source;
        Alcotest.test_case "busy rejected" `Quick test_busy_rejected;
        Alcotest.test_case "duplicate source" `Quick test_duplicate_source_rejected;
        Alcotest.test_case "safety log" `Quick test_safety_log;
        Alcotest.test_case "utilization" `Quick test_utilization;
        Alcotest.test_case "packet bursting" `Quick test_burst_extends_acquisition;
        QCheck_alcotest.to_alcotest prop_resolution_cases;
        Alcotest.test_case "stats snapshot" `Quick test_stats_snapshot;
      ] );
  ]
