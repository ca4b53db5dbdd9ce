module Json = Rtnet_util.Json
module Channel = Rtnet_channel.Channel
module Message = Rtnet_workload.Message

let pid_virtual = 0
let tid_channel = 1
let tid_search = 2
let tid_faults = 3
let tid_source s = 10 + s

type t = {
  reg : Registry.t;
  trace : Trace_event.t;
  bounds : (int, Headroom.bound) Hashtbl.t;
  worst : (int, int * int) Hashtbl.t;  (** cls id -> (worst, count) *)
  named : (int * int, unit) Hashtbl.t;
  procs : (int, unit) Hashtbl.t;
  pid0 : int;  (** pid of the virtual-time process track *)
  plabel : string;  (** its Perfetto process name *)
  mutable wall0 : float option;
  (* The open tree-search spans (start bit-time, -1 when closed), from
     DDCR's marks; an STs span is [sent] if a frame completed inside
     it. *)
  mutable tts_start : int;
  mutable sts_start : int;
  mutable sts_sent : bool;
}

let ensure_process t ~pid name =
  if not (Hashtbl.mem t.procs pid) then begin
    Hashtbl.add t.procs pid ();
    Trace_event.set_process_name t.trace ~pid name
  end

let ensure_thread t ~pid ~tid name =
  if not (Hashtbl.mem t.named (pid, tid)) then begin
    Hashtbl.add t.named (pid, tid) ();
    (if pid = t.pid0 then ensure_process t ~pid t.plabel
     else ensure_process t ~pid "campaign (wall clock)");
    Trace_event.set_thread_name t.trace ~pid ~tid name
  end

let virtual_span t ~tid ~track_name ~name ~cat ~ts ~dur args =
  ensure_thread t ~pid:t.pid0 ~tid track_name;
  Trace_event.complete t.trace ~pid:t.pid0 ~tid ~name ~cat ~ts ~dur ~args ()

let on_slot t ~now ~next_free ~resolution =
  Registry.incr t.reg "engine/events";
  let dur = next_free - now in
  let span name args =
    virtual_span t ~tid:tid_channel ~track_name:"channel" ~name ~cat:"slot"
      ~ts:now ~dur args
  in
  match (resolution : Channel.resolution) with
  | Channel.Idle ->
    Registry.incr t.reg "slots/idle";
    span "idle" []
  | Channel.Tx _ ->
    (* The frame span on the source track (via [complete]) already
       shows the transmission. *)
    Registry.incr t.reg "slots/tx"
  | Channel.Garbled _ ->
    Registry.incr t.reg "slots/garbled";
    span "garbled" []
  | Channel.Clash { contenders; survivor } ->
    Registry.incr t.reg "slots/collision";
    if survivor <> None then Registry.incr t.reg "slots/collision_arbitrated";
    span "collision" [ ("contenders", Json.Int (List.length contenders)) ]

let on_enqueue t ~now ~msg =
  Registry.incr t.reg "queue/enqueued";
  let s = msg.Message.cls.Message.cls_source in
  ensure_thread t ~pid:t.pid0 ~tid:(tid_source s)
    (Printf.sprintf "source %d" s);
  Trace_event.instant t.trace ~pid:t.pid0 ~tid:(tid_source s)
    ~name:"enqueue" ~cat:"queue" ~ts:now
    ~args:
      [
        ("uid", Json.Int msg.Message.uid);
        ("cls", Json.String msg.Message.cls.Message.cls_name);
      ]
    ()

let on_complete t ~msg ~start ~finish =
  Registry.incr t.reg "frames/completed";
  if t.sts_start >= 0 then t.sts_sent <- true;
  let cls = msg.Message.cls in
  let latency = finish - msg.Message.arrival in
  Registry.observe t.reg ("access_delay/" ^ cls.Message.cls_name) latency;
  let worst, count =
    match Hashtbl.find_opt t.worst cls.Message.cls_id with
    | Some (w, c) -> (max w latency, c + 1)
    | None -> (latency, 1)
  in
  Hashtbl.replace t.worst cls.Message.cls_id (worst, count);
  let headroom_arg =
    match Hashtbl.find_opt t.bounds cls.Message.cls_id with
    | None -> []
    | Some b ->
      Registry.set_gauge t.reg
        ("headroom/" ^ cls.Message.cls_name)
        (b.Headroom.b_bound_impl -. float_of_int worst);
      [ ("headroom", Json.Float (b.Headroom.b_bound_impl -. float_of_int latency)) ]
  in
  let s = cls.Message.cls_source in
  virtual_span t ~tid:(tid_source s)
    ~track_name:(Printf.sprintf "source %d" s)
    ~name:cls.Message.cls_name ~cat:"frame" ~ts:start ~dur:(finish - start)
    ([
       ("uid", Json.Int msg.Message.uid);
       ("latency", Json.Int latency);
     ]
    @ headroom_arg)

let on_drop t ~msg =
  ignore msg;
  Registry.incr t.reg "queue/dropped"

let search_span t ~name ~key ~start ~finish ~sent =
  Registry.incr t.reg ("search/" ^ key);
  Registry.observe t.reg ("search_bits/" ^ key) (finish - start);
  virtual_span t ~tid:tid_search ~track_name:"searches" ~name ~cat:"search"
    ~ts:start ~dur:(finish - start)
    [ ("sent", Json.Bool sent) ]

let on_jump t ~now ~reft_from ~reft_to =
  Registry.incr t.reg "reft/jumps";
  Registry.add t.reg "reft/compressed_bits" (reft_to - reft_from);
  ensure_thread t ~pid:t.pid0 ~tid:tid_search "searches";
  Trace_event.instant t.trace ~pid:t.pid0 ~tid:tid_search
    ~name:"reft jump" ~cat:"search" ~ts:now
    ~args:[ ("from", Json.Int reft_from); ("to", Json.Int reft_to) ]
    ()

let on_epoch t ~start ~finish =
  Registry.incr t.reg "faults/epochs";
  (* Total degraded bit-time: the denominator chaos-run reports use to
     distinguish "missed inside an epoch" (degradation) from a real
     timeliness violation. *)
  Registry.add t.reg "faults/epoch_bits" (finish - start);
  Registry.observe t.reg "faults/epoch_len_bits" (finish - start);
  virtual_span t ~tid:tid_faults ~track_name:"faults" ~name:"fault epoch"
    ~cat:"fault" ~ts:start ~dur:(finish - start)
    [ ("start", Json.Int start); ("finish", Json.Int finish) ]

let on_mark t ~time : Sink.mark -> unit = function
  | Sink.Tts_begin _ -> t.tts_start <- time
  | Sink.Tts_end { sent } ->
    if t.tts_start >= 0 then
      search_span t ~name:"TTs" ~key:"tts" ~start:t.tts_start ~finish:time
        ~sent;
    t.tts_start <- -1
  | Sink.Sts_begin _ ->
    t.sts_start <- time;
    t.sts_sent <- false
  | Sink.Sts_end ->
    if t.sts_start >= 0 then
      search_span t ~name:"STs" ~key:"sts" ~start:t.sts_start ~finish:time
        ~sent:t.sts_sent;
    t.sts_start <- -1
  | Sink.Jump { reft_from; reft_to } -> on_jump t ~now:time ~reft_from ~reft_to
  | Sink.Free | Sink.Attempt | Sink.Tts | Sink.Sts | Sink.Crash _
  | Sink.Rejoin _ | Sink.Desync _ | Sink.Resync _ ->
    ()

let us_of_s s = int_of_float (Float.round (s *. 1e6))

let worker_cell t ~worker ~key ~t0 ~t1 ~ok =
  let wall0 =
    match t.wall0 with
    | Some w -> w
    | None ->
      t.wall0 <- Some t0;
      t0
  in
  Registry.incr t.reg "campaign/cells";
  if not ok then Registry.incr t.reg "campaign/cells_failed";
  Registry.add_gauge t.reg
    (Printf.sprintf "campaign/worker%d/busy_s" worker)
    (t1 -. t0);
  ensure_thread t ~pid:(t.pid0 + 1) ~tid:worker
    (Printf.sprintf "worker %d" worker);
  Trace_event.complete t.trace ~pid:(t.pid0 + 1) ~tid:worker ~name:key
    ~cat:"cell"
    ~ts:(max 0 (us_of_s (t0 -. wall0)))
    ~dur:(max 0 (us_of_s (t1 -. t0)))
    ~args:[ ("ok", Json.Bool ok) ]
    ()

let create ?(bounds = []) ?wall0 ?(pid = pid_virtual)
    ?(process_name = "virtual time (bit-times)") () =
  let t =
    {
      reg = Registry.create ();
      trace = Trace_event.create ();
      bounds = Hashtbl.create 8;
      worst = Hashtbl.create 8;
      named = Hashtbl.create 8;
      procs = Hashtbl.create 4;
      pid0 = pid;
      plabel = process_name;
      wall0;
      tts_start = -1;
      sts_start = -1;
      sts_sent = false;
    }
  in
  List.iter (fun b -> Hashtbl.replace t.bounds b.Headroom.b_cls b) bounds;
  t

let sink t =
  Sink.create ~slot:(on_slot t) ~enqueue:(on_enqueue t)
    ~complete:(on_complete t) ~drop:(on_drop t) ~epoch:(on_epoch t)
    ~mark:(on_mark t) ()

let registry t = t.reg
let snapshot t = Registry.snapshot t.reg

let headroom_table t =
  Hashtbl.fold (fun _ b acc -> b :: acc) t.bounds []
  |> List.sort (fun a b -> compare a.Headroom.b_cls b.Headroom.b_cls)
  |> List.map (fun b ->
         let observed, count =
           Option.value ~default:(0, 0)
             (Hashtbl.find_opt t.worst b.Headroom.b_cls)
         in
         { Headroom.e_bound = b; e_observed = observed; e_count = count })

let trace_json t = Trace_event.to_json t.trace
