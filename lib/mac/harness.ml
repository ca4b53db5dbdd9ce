module Message = Rtnet_workload.Message
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Edf_queue = Rtnet_edf.Edf_queue
module Run = Rtnet_stats.Run
module Sink = Rtnet_telemetry.Sink

type services = {
  channel : Channel.t;
  peek : int -> Message.t option;
  pop : int -> Message.t option;
  complete : Message.t -> start:int -> finish:int -> unit;
  drop : Message.t -> unit;
  deliver_until : int -> unit;
  alive : int -> bool;
  observed : int -> Channel.resolution;
  mark_desync : int -> unit;
  mark_resync : int -> unit;
}

type mismatch = {
  mm_slot : int;
  mm_source : int;
  mm_tag : int;
  mm_reason : string;
}

exception Mismatch of mismatch

let mismatch_message m =
  Printf.sprintf "slot at t=%d: source %d, tag %d: %s" m.mm_slot m.mm_source
    m.mm_tag m.mm_reason

let () =
  Printexc.register_printer (function
    | Mismatch m -> Some ("Rtnet_mac.Harness.Mismatch: " ^ mismatch_message m)
    | _ -> None)

(* A listener's local decoding of the wire under misperception: a
   carried frame decodes as CRC-garbage, a destructive collision as
   silence (the fragment is below its carrier-sense threshold).  Both
   mapped observations are feedback values the protocols already
   tolerate, so misperception degrades consistency — never the local
   automaton's own invariants.  Arbitrated-survivor slots and the
   listener's own transmissions are immune (the survivor's preamble
   re-synchronizes receivers; a sender knows what it sent). *)
let misperceived_view (resolution : Channel.resolution) =
  match resolution with
  | Channel.Tx { on_wire; _ } -> Channel.Garbled { on_wire }
  | Channel.Clash { survivor = None; _ } -> Channel.Idle
  | Channel.Idle | Channel.Garbled _ | Channel.Clash { survivor = Some _; _ }
    ->
    resolution

let arrival_order a b =
  let c = Int.compare a.Message.arrival b.Message.arrival in
  if c <> 0 then c else Int.compare a.Message.uid b.Message.uid

let run ~protocol ?fault ?plan ?(analyze = true) ?(sink = Sink.null)
    ?on_complete ?inject ~phy ~num_sources ~horizon ~decide ~after trace =
  let telemetry = sink.Sink.enabled in
  let channel = Channel.create ?fault ?plan phy in
  let queues = Array.make num_sources Edf_queue.empty in
  let completions = ref [] in
  let dropped = ref [] in
  let arrivals = ref (List.sort arrival_order trace) in
  let rec deliver_from now = function
    | m :: rest when m.Message.arrival <= now ->
      let s = m.Message.cls.Message.cls_source in
      if s < 0 || s >= num_sources then
        failwith
          (Printf.sprintf
             "harness: arrival for unknown source %d (instance has %d \
              sources)"
             s num_sources);
      queues.(s) <- Edf_queue.insert queues.(s) m;
      if telemetry then sink.Sink.enqueue ~now ~msg:m;
      deliver_from now rest
    | rest -> arrivals := rest
  in
  let deliver now = deliver_from now !arrivals in
  (* The slot's wire resolution, which every source observes without a
     plan. *)
  let wire = ref Channel.Idle in
  (* Per-source fault bookkeeping (only populated under a plan). *)
  let alive_now = Array.make num_sources true in
  let observed_now = Array.make num_sources Channel.Idle in
  let crashed_slots = Array.make num_sources 0 in
  let missed = Array.make num_sources 0 in
  let misperceived = Array.make num_sources 0 in
  let desync_slots = Array.make num_sources 0 in
  let resyncs = Array.make num_sources 0 in
  let slot_faulty = ref false in
  (* Fault epochs, merged on the fly: adjacent/overlapping faulty slots
     coalesce because the next slot starts exactly at this one's
     [next_free]. *)
  let epochs = ref [] in
  let epoch_open = ref None in
  let note_epoch ~start ~finish =
    match !epoch_open with
    | Some (s, e) when start <= e -> epoch_open := Some (s, max e finish)
    | Some (s, e) ->
      epochs := (s, e) :: !epochs;
      epoch_open := Some (start, finish)
    | None -> epoch_open := Some (start, finish)
  in
  (* [analyze], checked as each completion is recorded: the completion
     must be the frame the channel carried last, and no earlier carried
     frame may still lack its completion.  With the channel's own
     overlap assertion this makes the completion list equal, in order,
     to the frames the wire carried.  Plain int comparisons on the
     channel's in-place record: nothing allocates unless it fails. *)
  let carried = Channel.last_carried channel in
  let completed = ref 0 in
  let analyze_failure fmt =
    Printf.ksprintf (fun msg -> failwith ("harness analyze: " ^ msg)) fmt
  in
  let check_completion m ~start ~finish =
    let src = m.Message.cls.Message.cls_source and uid = m.Message.uid in
    if Channel.tx_count channel <> !completed + 1 then
      analyze_failure
        "completion (src %d uid %d [%d, %d)) recorded as completion %d but \
         the channel carried %d frames"
        src uid start finish (!completed + 1) (Channel.tx_count channel)
    else if
      carried.Channel.c_src <> src
      || carried.Channel.c_tag <> uid
      || carried.Channel.c_start <> start
      || carried.Channel.c_finish <> finish
    then
      analyze_failure
        "completion (src %d uid %d [%d, %d)) disagrees with the channel's \
         last carried frame (src %d tag %d [%d, %d))"
        src uid start finish carried.Channel.c_src carried.Channel.c_tag
        carried.Channel.c_start carried.Channel.c_finish
  in
  let services =
    {
      channel;
      peek = (fun src -> Edf_queue.peek queues.(src));
      pop =
        (fun src ->
          match Edf_queue.pop queues.(src) with
          | Some (m, q) ->
            queues.(src) <- q;
            Some m
          | None -> None);
      complete =
        (fun m ~start ~finish ->
          if analyze then check_completion m ~start ~finish;
          incr completed;
          if telemetry then sink.Sink.complete ~msg:m ~start ~finish;
          (match on_complete with
          | None -> ()
          | Some f -> f ~msg:m ~start ~finish);
          completions :=
            { Run.c_msg = m; c_start = start; c_finish = finish }
            :: !completions);
      drop =
        (fun m ->
          if telemetry then sink.Sink.drop ~msg:m;
          dropped := m :: !dropped);
      deliver_until = (fun time -> deliver time);
      alive = (fun src -> alive_now.(src));
      observed =
        (match plan with
        | None -> fun _ -> !wire
        | Some _ -> fun src -> observed_now.(src));
      mark_desync =
        (fun src ->
          desync_slots.(src) <- desync_slots.(src) + 1;
          slot_faulty := true);
      mark_resync = (fun src -> resyncs.(src) <- resyncs.(src) + 1);
    }
  in
  let take ~now src tag =
    match services.pop src with
    | Some m when m.Message.uid = tag -> m
    | Some m ->
      raise
        (Mismatch
           {
             mm_slot = now;
             mm_source = src;
             mm_tag = tag;
             mm_reason =
               Printf.sprintf
                 "transmitted tag disagrees with the EDF head (uid %d)"
                 m.Message.uid;
           })
    | None ->
      raise
        (Mismatch
           {
             mm_slot = now;
             mm_source = src;
             mm_tag = tag;
             mm_reason = "transmitted from an empty queue";
           })
  in
  (* A crashed source transmits nothing, whatever the protocol's
     decision callback returned; the participants of the slot are
     marked in [participant] (cleared again after the observations). *)
  let attempt_alive a = alive_now.(a.Channel.att_source) in
  let participant = Array.make num_sources false in
  let mark a = participant.(a.Channel.att_source) <- true in
  let unmark a = participant.(a.Channel.att_source) <- false in
  (* One contention slot starting at [now]; returns the next slot
     boundary. *)
  let slot now =
    if telemetry then sink.Sink.engine_event ~time:now;
    (* Bridge ingress (multi-hop topologies): the injector may hand the
       harness new messages at any slot boundary; they join the arrival
       stream and become visible to the EDF queues exactly like trace
       arrivals (at the first boundary at or after their arrival time). *)
    (match inject with
    | None -> ()
    | Some f -> (
      match f ~now with
      | [] -> ()
      | injected ->
        arrivals :=
          List.merge arrival_order
            (List.sort arrival_order injected)
            !arrivals));
    deliver now;
    slot_faulty := false;
    (match plan with
    | None -> ()
    | Some p ->
      for s = 0 to num_sources - 1 do
        let a = Fault_plan.alive p ~source:s ~now in
        alive_now.(s) <- a;
        if not a then begin
          crashed_slots.(s) <- crashed_slots.(s) + 1;
          slot_faulty := true
        end
      done);
    let attempts = decide services ~now in
    let attempts =
      match plan with
      | Some _ when not (List.for_all attempt_alive attempts) ->
        List.filter attempt_alive attempts
      | Some _ | None -> attempts
    in
    let resolution, next_free = Channel.contend channel ~now attempts in
    if telemetry then sink.Sink.slot ~now ~next_free ~resolution;
    wire := resolution;
    (match plan with
    | None -> ()
    | Some p ->
      List.iter mark attempts;
      (match resolution with
      | Channel.Garbled _ ->
        (* Wire-level noise destroyed a frame: the slot is degraded
           even though everyone observed it consistently. *)
        slot_faulty := true
      | _ -> ());
      for s = 0 to num_sources - 1 do
        if not alive_now.(s) then begin
          observed_now.(s) <- Channel.Idle;
          match resolution with
          | Channel.Idle -> ()
          | _ -> missed.(s) <- missed.(s) + 1
        end
        else begin
          let flips = Fault_plan.misperceives p ~source:s ~now in
          let obs =
            if flips && not participant.(s) then misperceived_view resolution
            else resolution
          in
          observed_now.(s) <- obs;
          (* The physical test first: an unflipped view is the wire
             value itself, and the structural one walks the slot's
             contender list. *)
          if obs != resolution && obs <> resolution then begin
            misperceived.(s) <- misperceived.(s) + 1;
            slot_faulty := true
          end
        end
      done;
      List.iter unmark attempts);
    (match resolution with
    | Channel.Idle | Channel.Garbled _ | Channel.Clash { survivor = None; _ } ->
      ()
    | Channel.Tx { src; tag; on_wire } ->
      let m = take ~now src tag in
      services.complete m ~start:now ~finish:(now + on_wire)
    | Channel.Clash { survivor = Some (src, tag, on_wire); _ } ->
      let m = take ~now src tag in
      let start = now + Channel.slot_bits channel in
      services.complete m ~start ~finish:(start + on_wire));
    let next_free = after services ~now ~resolution ~next_free in
    if analyze && Channel.tx_count channel <> !completed then
      analyze_failure
        "slot at t=%d: the channel carried %d frames but %d completions \
         were recorded"
        now (Channel.tx_count channel) !completed;
    if !slot_faulty then note_epoch ~start:now ~finish:next_free;
    next_free
  in
  let rec loop now =
    let next_free = slot now in
    if next_free < horizon then loop next_free
  in
  loop 0;
  let unfinished =
    Array.fold_left (fun acc q -> acc @ Edf_queue.to_sorted_list q) [] queues
    @ List.filter (fun m -> m.Message.arrival < horizon) !arrivals
  in
  let faults =
    match plan with
    | None -> None
    | Some _ ->
      (match !epoch_open with
      | Some span -> epochs := span :: !epochs
      | None -> ());
      if telemetry then
        List.iter
          (fun (start, finish) -> sink.Sink.epoch ~start ~finish)
          (List.rev !epochs);
      Some
        {
          Run.f_per_source =
            List.init num_sources (fun s ->
                {
                  Run.sf_source = s;
                  sf_crashed_slots = crashed_slots.(s);
                  sf_missed = missed.(s);
                  sf_misperceived = misperceived.(s);
                  sf_desync_slots = desync_slots.(s);
                  sf_resyncs = resyncs.(s);
                });
          f_epochs = List.rev !epochs;
        }
  in
  {
    Run.protocol;
    completions = List.rev !completions;
    unfinished;
    dropped = List.rev !dropped;
    horizon;
    channel = Some (Channel.stats channel);
    faults;
  }
