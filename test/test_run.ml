module Message = Rtnet_workload.Message
module Run = Rtnet_stats.Run
module Run_json = Rtnet_stats.Run_json
module Channel = Rtnet_channel.Channel

let cls id deadline =
  {
    Message.cls_id = id;
    cls_name = "c" ^ string_of_int id;
    cls_source = 0;
    cls_bits = 1000;
    cls_deadline = deadline;
    cls_burst = 1;
    cls_window = 10_000;
  }

let msg uid arrival deadline = { Message.uid; cls = cls uid deadline; arrival }

let completion uid arrival deadline start finish =
  { Run.c_msg = msg uid arrival deadline; c_start = start; c_finish = finish }

let outcome ?(unfinished = []) ?(dropped = []) ?(horizon = 100_000) completions =
  {
    Run.protocol = "test";
    completions;
    unfinished;
    dropped;
    horizon;
    channel = None;
    faults = None;
  }

let test_latency_lateness () =
  let c = completion 0 100 1000 (* DM 1100 *) 200 900 in
  Alcotest.(check int) "latency" 800 (Run.latency c);
  Alcotest.(check int) "lateness" (-200) (Run.lateness c);
  Alcotest.(check bool) "on time" false (Run.missed c);
  let late = completion 1 0 500 600 1200 in
  Alcotest.(check bool) "late" true (Run.missed late)

let test_metrics_accounting () =
  let o =
    outcome
      ~unfinished:[ msg 10 0 500 (* due before horizon: a miss *) ]
      ~dropped:[ msg 11 0 500 ]
      [ completion 0 0 10_000 0 1000; completion 1 0 500 600 1200 (* late *) ]
  in
  let m = Run.metrics o in
  Alcotest.(check int) "delivered" 2 m.Run.delivered;
  Alcotest.(check int) "misses = late + dropped + due-unfinished" 3
    m.Run.deadline_misses;
  Alcotest.(check int) "worst latency" 1200 m.Run.worst_latency;
  Alcotest.(check (float 1e-9)) "miss ratio" 0.75 m.Run.miss_ratio

let test_unfinished_beyond_horizon_not_missed () =
  let o =
    outcome ~horizon:1000
      ~unfinished:[ msg 5 900 5000 (* DM 5900 > horizon *) ]
      [ completion 0 0 10_000 0 500 ]
  in
  Alcotest.(check int) "no miss" 0 (Run.metrics o).Run.deadline_misses

let test_inversions () =
  (* b (DM 500) was pending when a (DM 9000) started: one inversion. *)
  let a = completion 0 0 9_000 100 300 in
  let b = completion 1 50 500 300 400 in
  Alcotest.(check int) "one inversion" 1 (Run.inversions [ a; b ]);
  (* EDF-consistent order: none. *)
  let c = completion 2 0 400 0 100 in
  Alcotest.(check int) "none when EDF" 0 (Run.inversions [ c; a ]);
  (* b arrived after a started: not an inversion. *)
  let late_b = completion 3 200 500 300 400 in
  Alcotest.(check int) "arrival after start" 0 (Run.inversions [ a; late_b ])

(* The definition, pair by pair: the reference the divide-and-conquer
   count must equal. *)
let pairwise_inversions cs =
  let arr = Array.of_list cs in
  let n = Array.length arr in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = arr.(i) and b = arr.(j) in
      if
        b.Run.c_msg.Message.arrival <= a.Run.c_start
        && Message.abs_deadline a.Run.c_msg > Message.abs_deadline b.Run.c_msg
      then incr count
    done
  done;
  !count

(* Small value ranges, so equal deadlines, arrival = start, arrivals
   equal to another message's start and equal finish times are common;
   a third of the lists have 0-2 elements.  The list order is random,
   not start order. *)
let gen_completion uid =
  let open QCheck.Gen in
  let* arrival = int_range 0 12 in
  let* wait = frequencyl [ (1, 0); (3, 1); (3, 2); (3, 6) ] in
  let* d = int_range 1 6 in
  let+ len = int_range 0 3 in
  let start = arrival + wait in
  completion uid arrival d start (start + len)

let gen_completions =
  let open QCheck.Gen in
  let* n = frequency [ (1, int_range 0 2); (2, int_range 3 40) ] in
  flatten_l (List.init n gen_completion)

(* Segments of one federated run: each in start order, as one bus
   completes them, with uids that repeat across segments. *)
let gen_segments =
  let open QCheck.Gen in
  let* k = int_range 1 4 in
  list_repeat k
    (map
       (List.sort (fun a b -> Int.compare a.Run.c_start b.Run.c_start))
       gen_completions)

let print_completions cs =
  String.concat "; "
    (List.map
       (fun c ->
         Printf.sprintf "uid %d T %d DM %d [%d, %d]" c.Run.c_msg.Message.uid
           c.Run.c_msg.Message.arrival
           (Message.abs_deadline c.Run.c_msg)
           c.Run.c_start c.Run.c_finish)
       cs)

let arb_segments =
  QCheck.make
    ~print:(fun segs -> String.concat " | " (List.map print_completions segs))
    gen_segments

let prop_inversions_pairwise =
  QCheck.Test.make ~name:"inversions = pairwise definition" ~count:1000
    (QCheck.make ~print:print_completions gen_completions)
    (fun cs -> Run.inversions cs = pairwise_inversions cs)

let merged segs =
  let outcomes = List.map (fun cs -> outcome cs) segs in
  (Run.merge ~protocol:"test" ~horizon:100 outcomes).Run.completions

let prop_inversions_merged =
  QCheck.Test.make ~name:"inversions of merged segments = pairwise"
    ~count:500 arb_segments
    (fun segs ->
      let cs = merged segs in
      Run.inversions cs = pairwise_inversions cs)

(* Run.merge sorted on polymorphic [compare] of (finish, start, uid)
   tuples; the monomorphic comparator must give the same order, ties
   in the same (stable) place. *)
let prop_merge_order =
  QCheck.Test.make ~name:"merge order = (finish, start, uid) tuple order"
    ~count:500 arb_segments
    (fun segs ->
      let tuple_order =
        List.sort
          (fun a b ->
            compare
              (a.Run.c_finish, a.Run.c_start, a.Run.c_msg.Message.uid)
              (b.Run.c_finish, b.Run.c_start, b.Run.c_msg.Message.uid))
          (List.concat segs)
      in
      List.for_all2 ( == ) (merged segs) tuple_order)

let test_per_class_worst () =
  let o =
    outcome
      [
        completion 0 0 10_000 0 500;
        completion 1 0 10_000 0 900;
        completion 2 0 10_000 0 100;
      ]
  in
  (* all three share cls ids 0,1,2 distinct -> three entries *)
  Alcotest.(check int) "three classes" 3
    (List.length (Run.per_class_worst_latency o))

let test_empty_outcome () =
  let m = Run.metrics (outcome []) in
  Alcotest.(check int) "nothing delivered" 0 m.Run.delivered;
  Alcotest.(check (float 1e-9)) "ratio 0" 0. m.Run.miss_ratio

let channel_stats =
  {
    Channel.idle_slots = 3;
    collision_slots = 2;
    tx_count = 9;
    garbled_count = 4;
    busy_bits = 11_000;
    total_bits = 40_000;
  }

let test_garbled_surfaced () =
  (* The channel's noise counter must flow into the metrics record so
     fault campaigns can gate on it. *)
  let o =
    { (outcome [ completion 0 0 10_000 0 1000 ]) with
      channel = Some channel_stats }
  in
  Alcotest.(check int) "garbled from channel" 4 (Run.metrics o).Run.garbled;
  Alcotest.(check int) "zero without channel" 0
    (Run.metrics (outcome [])).Run.garbled

let test_metrics_json_roundtrip () =
  let o =
    { (outcome
         ~unfinished:[ msg 10 0 500 ]
         ~dropped:[ msg 11 0 500 ]
         [ completion 0 0 10_000 0 1000; completion 1 0 500 600 1200 ])
      with channel = Some channel_stats }
  in
  let m = Run.metrics o in
  (match Run_json.metrics_of_json (Run_json.metrics_to_json m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    Alcotest.(check bool) "metrics round-trip exactly" true (m = m'));
  match Run_json.channel_stats_of_json (Run_json.channel_stats_to_json channel_stats)
  with
  | Error e -> Alcotest.fail e
  | Ok st -> Alcotest.(check bool) "channel stats round-trip" true
               (st = channel_stats)

let test_outcome_json_shape () =
  let module Json = Rtnet_util.Json in
  let o =
    { (outcome ~unfinished:[ msg 10 0 500 ] [ completion 0 0 10_000 0 1000 ])
      with channel = Some channel_stats }
  in
  let j = Run_json.outcome_to_json o in
  let get k = match Json.member k j with Some v -> v | None ->
    Alcotest.fail ("missing " ^ k)
  in
  Alcotest.(check string) "protocol" "test"
    (Result.get_ok (Json.get_string (get "protocol")));
  Alcotest.(check int) "one completion" 1
    (List.length (Result.get_ok (Json.get_list (get "completions"))));
  Alcotest.(check int) "one unfinished" 1
    (List.length (Result.get_ok (Json.get_list (get "unfinished"))));
  Alcotest.(check bool) "metrics embedded" true (Json.member "metrics" j <> None)

(* The fingerprint's digest streams the completions into one byte
   string sized from their count; it must digest the encoding's bytes,
   including when 19-digit fields outgrow that size. *)
let test_outcome_digest () =
  let module Json = Rtnet_util.Json in
  let big = max_int / 2 in
  let many =
    List.init 200 (fun i ->
        completion (big + i) (big - i) (big / 4) (big + 1) (big + 2))
  in
  List.iter
    (fun o ->
      Alcotest.(check string) "digest of the encoding"
        (Digest.to_hex (Digest.string (Json.to_string (Run_json.outcome_to_json o))))
        (Digest.to_hex (Run_json.outcome_digest o)))
    [
      outcome [];
      { (outcome ~unfinished:[ msg 10 0 500 ] [ completion 0 0 10_000 0 1000 ])
        with channel = Some channel_stats };
      outcome ~dropped:[ msg 3 0 5 ] many;
    ]

let suite =
  [
    ( "run",
      [
        Alcotest.test_case "latency/lateness" `Quick test_latency_lateness;
        Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
        Alcotest.test_case "horizon exemption" `Quick
          test_unfinished_beyond_horizon_not_missed;
        Alcotest.test_case "inversions" `Quick test_inversions;
        Alcotest.test_case "per-class worst" `Quick test_per_class_worst;
        Alcotest.test_case "empty outcome" `Quick test_empty_outcome;
        Alcotest.test_case "garbled surfaced" `Quick test_garbled_surfaced;
        Alcotest.test_case "metrics json round-trip" `Quick
          test_metrics_json_roundtrip;
        Alcotest.test_case "outcome json shape" `Quick test_outcome_json_shape;
        Alcotest.test_case "outcome digest" `Quick test_outcome_digest;
      ]
      @ List.map
          (fun t ->
            QCheck_alcotest.to_alcotest ~speed_level:`Quick
              ~rand:(Random.State.make [| 25 |]) t)
          [ prop_inversions_pairwise; prop_inversions_merged; prop_merge_order ]
    );
  ]
