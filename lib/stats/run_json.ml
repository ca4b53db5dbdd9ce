module Json = Rtnet_util.Json
module Message = Rtnet_workload.Message
module Channel = Rtnet_channel.Channel

let ( let* ) = Result.bind

let metrics_to_json (m : Run.metrics) =
  Json.Obj
    [
      ("delivered", Json.Int m.Run.delivered);
      ("deadline_misses", Json.Int m.Run.deadline_misses);
      ("miss_ratio", Json.Float m.Run.miss_ratio);
      ("worst_latency", Json.Int m.Run.worst_latency);
      ("mean_latency", Json.Float m.Run.mean_latency);
      ("worst_lateness", Json.Int m.Run.worst_lateness);
      ("inversions", Json.Int m.Run.inversions);
      ("garbled", Json.Int m.Run.garbled);
      ("utilization", Json.Float m.Run.utilization);
      ("desync_slots", Json.Int m.Run.desync_slots);
      ("recoveries", Json.Int m.Run.recoveries);
      ("misperceived", Json.Int m.Run.misperceived);
      ("missed_offline", Json.Int m.Run.missed_offline);
    ]

let int_field j key =
  let* v = Json.field key j in
  Result.map_error (fun e -> Printf.sprintf "%s: %s" key e) (Json.get_int v)

let float_field j key =
  let* v = Json.field key j in
  Result.map_error (fun e -> Printf.sprintf "%s: %s" key e) (Json.get_float v)

let metrics_of_json j =
  let* delivered = int_field j "delivered" in
  let* deadline_misses = int_field j "deadline_misses" in
  let* miss_ratio = float_field j "miss_ratio" in
  let* worst_latency = int_field j "worst_latency" in
  let* mean_latency = float_field j "mean_latency" in
  let* worst_lateness = int_field j "worst_lateness" in
  let* inversions = int_field j "inversions" in
  let* garbled = int_field j "garbled" in
  let* utilization = float_field j "utilization" in
  (* Fault counters default to 0 so reports written before the
     fault-plan subsystem still load. *)
  let fault_count key = Json.field_or key ~default:0 Json.get_int j in
  let* desync_slots = fault_count "desync_slots" in
  let* recoveries = fault_count "recoveries" in
  let* misperceived = fault_count "misperceived" in
  let* missed_offline = fault_count "missed_offline" in
  Ok
    {
      Run.delivered;
      deadline_misses;
      miss_ratio;
      worst_latency;
      mean_latency;
      worst_lateness;
      inversions;
      garbled;
      utilization;
      desync_slots;
      recoveries;
      misperceived;
      missed_offline;
    }

let channel_stats_to_json (st : Channel.stats) =
  Json.Obj
    [
      ("idle_slots", Json.Int st.Channel.idle_slots);
      ("collision_slots", Json.Int st.Channel.collision_slots);
      ("tx_count", Json.Int st.Channel.tx_count);
      ("garbled_count", Json.Int st.Channel.garbled_count);
      ("busy_bits", Json.Int st.Channel.busy_bits);
      ("total_bits", Json.Int st.Channel.total_bits);
    ]

let channel_stats_of_json j =
  let* idle_slots = int_field j "idle_slots" in
  let* collision_slots = int_field j "collision_slots" in
  let* tx_count = int_field j "tx_count" in
  let* garbled_count = int_field j "garbled_count" in
  let* busy_bits = int_field j "busy_bits" in
  let* total_bits = int_field j "total_bits" in
  Ok
    {
      Channel.idle_slots;
      collision_slots;
      tx_count;
      garbled_count;
      busy_bits;
      total_bits;
    }

let source_faults_to_json (sf : Run.source_faults) =
  Json.Obj
    [
      ("source", Json.Int sf.Run.sf_source);
      ("crashed_slots", Json.Int sf.Run.sf_crashed_slots);
      ("missed", Json.Int sf.Run.sf_missed);
      ("misperceived", Json.Int sf.Run.sf_misperceived);
      ("desync_slots", Json.Int sf.Run.sf_desync_slots);
      ("resyncs", Json.Int sf.Run.sf_resyncs);
    ]

let fault_stats_to_json (fs : Run.fault_stats) =
  Json.Obj
    [
      ( "per_source",
        Json.List (List.map source_faults_to_json fs.Run.f_per_source) );
      ( "epochs",
        Json.List
          (List.map
             (fun (s, f) -> Json.List [ Json.Int s; Json.Int f ])
             fs.Run.f_epochs) );
    ]

let message_to_json (m : Message.t) =
  Json.Obj
    [
      ("uid", Json.Int m.Message.uid);
      ("cls", Json.Int m.Message.cls.Message.cls_id);
      ("arrival", Json.Int m.Message.arrival);
      ("deadline", Json.Int (Message.abs_deadline m));
    ]

let completion_to_json (c : Run.completion) =
  Json.Obj
    [
      ("uid", Json.Int c.Run.c_msg.Message.uid);
      ("cls", Json.Int c.Run.c_msg.Message.cls.Message.cls_id);
      ("src", Json.Int c.Run.c_msg.Message.cls.Message.cls_source);
      ("arrival", Json.Int c.Run.c_msg.Message.arrival);
      ("deadline", Json.Int (Message.abs_deadline c.Run.c_msg));
      ("start", Json.Int c.Run.c_start);
      ("finish", Json.Int c.Run.c_finish);
    ]

(* The fields before and after the completions. *)
let outcome_fields (o : Run.outcome) =
  ( [ ("protocol", Json.String o.Run.protocol);
      ("horizon", Json.Int o.Run.horizon) ],
    [
      ("unfinished", Json.List (List.map message_to_json o.Run.unfinished));
      ("dropped", Json.List (List.map message_to_json o.Run.dropped));
      ( "channel",
        match o.Run.channel with
        | None -> Json.Null
        | Some st -> channel_stats_to_json st );
      ( "faults",
        match o.Run.faults with
        | None -> Json.Null
        | Some fs -> fault_stats_to_json fs );
      ("metrics", metrics_to_json (Run.metrics o));
    ] )

let outcome_to_json (o : Run.outcome) =
  let head, tail = outcome_fields o in
  let completions = Json.List (List.map completion_to_json o.Run.completions) in
  Json.Obj (head @ (("completions", completions) :: tail))

let outcome_digest (o : Run.outcome) =
  let head, tail = outcome_fields o in
  let head = Json.to_string (Json.Obj head)
  and tail = Json.to_string (Json.Obj tail) in
  (* Each piece goes through [piece] into one string sized from the
     completion count. *)
  let piece = Buffer.create 4096 in
  let out = ref (Bytes.create (4096 + (128 * List.length o.Run.completions))) in
  let len = ref 0 in
  let emit () =
    let n = Buffer.length piece in
    if !len + n > Bytes.length !out then
      out := Bytes.extend !out 0 (max n !len);
    Buffer.blit piece 0 !out !len n;
    len := !len + n;
    Buffer.clear piece
  in
  Buffer.add_string piece (String.sub head 0 (String.length head - 1));
  Buffer.add_string piece ",\"completions\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char piece ',';
      Json.to_buffer piece (completion_to_json c);
      emit ())
    o.Run.completions;
  Buffer.add_string piece ("]," ^ String.sub tail 1 (String.length tail - 1));
  emit ();
  Digest.subbytes !out 0 !len
