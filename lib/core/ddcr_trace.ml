module Sink = Rtnet_telemetry.Sink
module Channel = Rtnet_channel.Channel
module Message = Rtnet_workload.Message

type via = Free_csma | Open_attempt | Time_tree | Static_tree | Bursting

type event =
  | Idle_slot of { time : int; phase : string }
  | Collision_slot of { time : int; phase : string; contenders : int }
  | Garbled_slot of { time : int; on_wire : int }
  | Frame_sent of {
      time : int;
      finish : int;
      source : int;
      uid : int;
      via : via;
    }
  | Tts_begin of { time : int; reft : int }
  | Tts_end of { time : int; sent : bool }
  | Sts_begin of { time : int; time_leaf : int }
  | Sts_end of { time : int }
  | Crash of { time : int; source : int }
  | Rejoin of { time : int; source : int }
  | Desync of { time : int; source : int }
  | Resync of { time : int; source : int }

type summary = {
  idle_by_phase : (string * int) list;
  collision_slots : int;
  garbled_slots : int;
  frames : int;
  frames_by_via : (via * int) list;
  tts_count : int;
  tts_productive : int;
  sts_count : int;
  crashes : int;
  rejoins : int;
  desyncs : int;
  resyncs : int;
}

let frame_sent ~via (msg : Message.t) ~start ~finish =
  let source = msg.cls.cls_source and uid = msg.uid in
  Frame_sent { time = start; finish; source; uid; via }

(* A slot's events come from its resolution, its frame's [complete]
   and the phase mark, which classifies both; a frame completing after
   the mark is a burst. *)
let collector () =
  let events = ref [] in
  let add e = events := e :: !events in
  let resolution = ref Channel.Idle and frame = ref None in
  let marked = ref true in
  let slot ~now:_ ~next_free:_ ~resolution:r =
    resolution := r;
    frame := None;
    marked := false
  in
  let complete ~msg ~start ~finish =
    if !marked then add (frame_sent ~via:Bursting msg ~start ~finish)
    else frame := Some (msg, start, finish)
  in
  let slot_events ~time via name =
    let sent () =
      Option.iter
        (fun (msg, start, finish) -> add (frame_sent ~via msg ~start ~finish))
        !frame
    in
    (match !resolution with
    | Channel.Idle -> add (Idle_slot { time; phase = name })
    | Channel.Garbled { on_wire } -> add (Garbled_slot { time; on_wire })
    | Channel.Tx _ -> sent ()
    | Channel.Clash { contenders; _ } ->
      add
        (Collision_slot
           { time; phase = name; contenders = List.length contenders });
      sent ());
    marked := true
  in
  let mark ~time : Sink.mark -> unit = function
    | Sink.Free -> slot_events ~time Free_csma "free"
    | Sink.Attempt -> slot_events ~time Open_attempt "attempt"
    | Sink.Tts -> slot_events ~time Time_tree "tts"
    | Sink.Sts -> slot_events ~time Static_tree "sts"
    | Sink.Tts_begin { reft } -> add (Tts_begin { time; reft })
    | Sink.Tts_end { sent } -> add (Tts_end { time; sent })
    | Sink.Sts_begin { time_leaf } -> add (Sts_begin { time; time_leaf })
    | Sink.Sts_end -> add (Sts_end { time })
    | Sink.Jump _ -> ()
    | Sink.Crash { source } -> add (Crash { time; source })
    | Sink.Rejoin { source } -> add (Rejoin { time; source })
    | Sink.Desync { source } -> add (Desync { time; source })
    | Sink.Resync { source } -> add (Resync { time; source })
  in
  (Sink.create ~slot ~complete ~mark (), fun () -> List.rev !events)

let bump assoc key =
  let rec go = function
    | (k, n) :: rest when k = key -> (k, n + 1) :: rest
    | pair :: rest -> pair :: go rest
    | [] -> [ (key, 1) ]
  in
  go assoc

let summarize events =
  List.fold_left
    (fun acc e ->
      match e with
      | Idle_slot { phase; _ } ->
        { acc with idle_by_phase = bump acc.idle_by_phase phase }
      | Collision_slot _ -> { acc with collision_slots = acc.collision_slots + 1 }
      | Garbled_slot _ -> { acc with garbled_slots = acc.garbled_slots + 1 }
      | Frame_sent { via; _ } ->
        {
          acc with
          frames = acc.frames + 1;
          frames_by_via = bump acc.frames_by_via via;
        }
      | Tts_begin _ -> { acc with tts_count = acc.tts_count + 1 }
      | Tts_end { sent; _ } ->
        if sent then { acc with tts_productive = acc.tts_productive + 1 }
        else acc
      | Sts_begin _ -> { acc with sts_count = acc.sts_count + 1 }
      | Sts_end _ -> acc
      | Crash _ -> { acc with crashes = acc.crashes + 1 }
      | Rejoin _ -> { acc with rejoins = acc.rejoins + 1 }
      | Desync _ -> { acc with desyncs = acc.desyncs + 1 }
      | Resync _ -> { acc with resyncs = acc.resyncs + 1 })
    {
      idle_by_phase = [];
      collision_slots = 0;
      garbled_slots = 0;
      frames = 0;
      frames_by_via = [];
      tts_count = 0;
      tts_productive = 0;
      sts_count = 0;
      crashes = 0;
      rejoins = 0;
      desyncs = 0;
      resyncs = 0;
    }
    events

let via_name = function
  | Free_csma -> "free-csma"
  | Open_attempt -> "open-attempt"
  | Time_tree -> "time-tree"
  | Static_tree -> "static-tree"
  | Bursting -> "bursting"

let pp_via fmt v = Format.pp_print_string fmt (via_name v)

let pp_event fmt = function
  | Idle_slot { time; phase } -> Format.fprintf fmt "%10d idle (%s)" time phase
  | Collision_slot { time; phase; contenders } ->
    Format.fprintf fmt "%10d collision of %d (%s)" time contenders phase
  | Garbled_slot { time; on_wire } ->
    Format.fprintf fmt "%10d garbled frame (%d bits)" time on_wire
  | Frame_sent { time; finish; source; uid; via } ->
    Format.fprintf fmt "%10d frame src=%d uid=%d via %a (ends %d)" time source
      uid pp_via via finish
  | Tts_begin { time; reft } ->
    Format.fprintf fmt "%10d TTs begin (reft=%d)" time reft
  | Tts_end { time; sent } ->
    Format.fprintf fmt "%10d TTs end (out=%b)" time sent
  | Sts_begin { time; time_leaf } ->
    Format.fprintf fmt "%10d STs begin (class %d)" time time_leaf
  | Sts_end { time } -> Format.fprintf fmt "%10d STs end" time
  | Crash { time; source } ->
    Format.fprintf fmt "%10d source %d crashes" time source
  | Rejoin { time; source } ->
    Format.fprintf fmt "%10d source %d rejoins (listen-only)" time source
  | Desync { time; source } ->
    Format.fprintf fmt "%10d source %d desynchronized (listen-only)" time source
  | Resync { time; source } ->
    Format.fprintf fmt "%10d source %d resynchronized" time source

let pp_summary fmt s =
  Format.fprintf fmt "@[<v>frames: %d (" s.frames;
  List.iteri
    (fun i (via, n) ->
      Format.fprintf fmt "%s%a %d" (if i > 0 then ", " else "") pp_via via n)
    s.frames_by_via;
  Format.fprintf fmt ")@,collision slots: %d, garbled: %d@,idle slots:"
    s.collision_slots s.garbled_slots;
  List.iter
    (fun (phase, n) -> Format.fprintf fmt " %s=%d" phase n)
    s.idle_by_phase;
  Format.fprintf fmt "@,time tree searches: %d (%d productive), static: %d"
    s.tts_count s.tts_productive s.sts_count;
  if s.crashes > 0 || s.rejoins > 0 || s.desyncs > 0 || s.resyncs > 0 then
    Format.fprintf fmt "@,faults: %d crashes, %d rejoins, %d desyncs, %d resyncs"
      s.crashes s.rejoins s.desyncs s.resyncs;
  Format.fprintf fmt "@]"
