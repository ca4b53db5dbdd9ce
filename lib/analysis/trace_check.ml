module Trace = Rtnet_core.Ddcr_trace
module Message = Rtnet_workload.Message
module Channel = Rtnet_channel.Channel
module Run = Rtnet_stats.Run
module D = Diagnostic

let safety_ref = "safety property <p.HRTDM>, Section 4.2"
let timeliness_ref = "timeliness property DM = T + d, Section 4.3"
let automaton_ref = "Section 3.2 automaton"
let accounting_ref = "slot accounting, Section 4.1"

let time_of = function
  | Trace.Idle_slot { time; _ }
  | Trace.Collision_slot { time; _ }
  | Trace.Garbled_slot { time; _ }
  | Trace.Frame_sent { time; _ }
  | Trace.Tts_begin { time; _ }
  | Trace.Tts_end { time; _ }
  | Trace.Sts_begin { time; _ }
  | Trace.Sts_end { time; _ }
  | Trace.Crash { time; _ }
  | Trace.Rejoin { time; _ }
  | Trace.Desync { time; _ }
  | Trace.Resync { time; _ } -> time

(* Fault epochs derivable from the trace itself: a source is degraded
   from its crash/desync until its resync (a rejoin keeps it degraded —
   it is listen-only until recovery).  Spans still open when the trace
   ends run to just past the last event. *)
let epochs_of_events events =
  let open_at = Hashtbl.create 4 in
  let spans = ref [] in
  let last = List.fold_left (fun acc e -> max acc (time_of e)) 0 events in
  List.iter
    (fun e ->
      match e with
      | Trace.Crash { time; source }
      | Trace.Desync { time; source }
      | Trace.Rejoin { time; source } ->
        if not (Hashtbl.mem open_at source) then
          Hashtbl.replace open_at source time
      | Trace.Resync { time; source } -> (
        match Hashtbl.find_opt open_at source with
        | Some s ->
          Hashtbl.remove open_at source;
          spans := (s, time) :: !spans
        | None -> ())
      | _ -> ())
    events;
  Hashtbl.iter (fun _ s -> spans := (s, last + 1) :: !spans) open_at;
  List.sort compare !spans

let inside_epoch ~epochs ~t0 ~dm ~finish =
  let lo = min t0 dm in
  List.exists (fun (s, e) -> s < finish && lo < e) epochs

let subject_of_event i e = Format.asprintf "event %d (%a)" i Trace.pp_event e

(* Timestamps never decrease along the trace. *)
let check_order events =
  let _, _, diags =
    List.fold_left
      (fun (i, last, acc) e ->
        let t = time_of e in
        let acc =
          if t < last then
            D.error ~rule_id:"TRC-ORDER" ~subject:(subject_of_event i e)
              ~paper_ref:"slotted medium model, Section 2.1"
              (Printf.sprintf "timestamp %d precedes previous event at %d" t
                 last)
            :: acc
          else acc
        in
        (i + 1, max last t, acc))
      (0, min_int, []) events
  in
  List.rev diags

(* Mutual exclusion: successful transmissions never overlap. *)
let check_safety events =
  let frames =
    List.filter_map
      (function
        | Trace.Frame_sent { time; finish; source; uid; _ } ->
          Some (time, finish, source, uid)
        | _ -> None)
      events
  in
  let sorted = List.sort compare frames in
  let rec scan acc = function
    | (t1, f1, s1, u1) :: ((t2, _, s2, u2) :: _ as rest) ->
      let acc =
        if t2 < f1 then
          D.error ~rule_id:"TRC-SAFETY"
            ~subject:(Printf.sprintf "frames uid=%d uid=%d" u1 u2)
            ~paper_ref:safety_ref
            (Printf.sprintf
               "source %d's frame [%d, %d) overlaps source %d's frame \
                starting at %d"
               s1 t1 f1 s2 t2)
          :: acc
        else acc
      in
      scan acc rest
    | [ _ ] | [] -> List.rev acc
  in
  scan [] sorted

let check_deadlines ~deadlines ~epochs events =
  if deadlines = [] then []
  else
    let tbl = Hashtbl.create (List.length deadlines) in
    List.iter (fun (uid, dm) -> Hashtbl.replace tbl uid dm) deadlines;
    List.filter_map
      (function
        | Trace.Frame_sent { time; finish; source; uid; _ } -> (
          match Hashtbl.find_opt tbl uid with
          | Some dm when finish > dm ->
            let lateness =
              Printf.sprintf
                "source %d's frame finishes at %d, %d bit-times after its \
                 absolute deadline %d"
                source finish (finish - dm) dm
            in
            if inside_epoch ~epochs ~t0:time ~dm ~finish then
              Some
                (D.warning ~rule_id:"TRC-DEGRADED"
                   ~subject:(Printf.sprintf "uid=%d" uid)
                   ~paper_ref:timeliness_ref
                   (lateness
                  ^ " — inside a fault epoch, so degradation, not a \
                     timeliness violation"))
            else
              Some
                (D.error ~rule_id:"TRC-DEADLINE"
                   ~subject:(Printf.sprintf "uid=%d" uid)
                   ~paper_ref:timeliness_ref lateness)
          | Some _ -> None
          | None ->
            Some
              (D.warning ~rule_id:"TRC-UID"
                 ~subject:(Printf.sprintf "uid=%d" uid)
                 ~paper_ref:timeliness_ref
                 "frame uid does not appear in the workload; timeliness not \
                  checkable"))
        | _ -> None)
      events

(* One pass over the stream checking bracket structure, slot phases and
   frame vias against the automaton of Section 3.2. *)
let check_structure events =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let err i e msg =
    emit
      (D.error ~rule_id:"TRC-NESTING" ~subject:(subject_of_event i e)
         ~paper_ref:automaton_ref msg)
  in
  let bad_phase i e msg =
    emit
      (D.error ~rule_id:"TRC-PHASE" ~subject:(subject_of_event i e)
         ~paper_ref:automaton_ref msg)
  in
  let bad_via i e msg =
    emit
      (D.error ~rule_id:"TRC-VIA" ~subject:(subject_of_event i e)
         ~paper_ref:automaton_ref msg)
  in
  let in_tts = ref false and in_sts = ref false in
  let legal_slot_phase i e phase =
    match phase with
    | "tts" ->
      if not (!in_tts && not !in_sts) then
        bad_phase i e "slot in phase \"tts\" outside a time tree search"
    | "sts" ->
      if not !in_sts then
        bad_phase i e "slot in phase \"sts\" outside a static tree search"
    | "free" | "attempt" ->
      if !in_tts || !in_sts then
        bad_phase i e
          (Printf.sprintf "slot in phase %S inside a tree search" phase)
    | other -> bad_phase i e (Printf.sprintf "unknown phase %S" other)
  in
  List.iteri
    (fun i e ->
      match e with
      | Trace.Tts_begin _ ->
        if !in_tts then err i e "time tree search started inside another";
        in_tts := true;
        in_sts := false
      | Trace.Tts_end _ ->
        if not !in_tts then err i e "time tree search ended but none is open";
        if !in_sts then
          err i e "time tree search ended inside a static tree search";
        in_tts := false;
        in_sts := false
      | Trace.Sts_begin _ ->
        if not !in_tts then
          err i e "static tree search started outside a time tree search";
        if !in_sts then err i e "static tree search started inside another";
        in_sts := true
      | Trace.Sts_end _ ->
        if not !in_sts then
          err i e "static tree search ended but none is open";
        in_sts := false
      | Trace.Idle_slot { phase; _ } -> legal_slot_phase i e phase
      | Trace.Collision_slot { phase; contenders; _ } ->
        legal_slot_phase i e phase;
        if contenders < 2 then
          bad_phase i e
            (Printf.sprintf "collision slot with %d contender(s)" contenders)
      | Trace.Garbled_slot _ -> ()
      (* Fault events are orthogonal to the bracket structure: a crash,
         rejoin, desync or resync may land anywhere — the surviving
         synced sources carry the search on regardless. *)
      | Trace.Crash _ | Trace.Rejoin _ | Trace.Desync _ | Trace.Resync _ ->
        ()
      | Trace.Frame_sent { via; _ } -> (
        match via with
        | Trace.Free_csma | Trace.Open_attempt ->
          if !in_tts || !in_sts then
            bad_via i e
              (Format.asprintf "%a frame inside a tree search" Trace.pp_via via)
        | Trace.Time_tree ->
          if not (!in_tts && not !in_sts) then
            bad_via i e "time-tree frame outside a time tree search"
        | Trace.Static_tree ->
          if not !in_sts then
            bad_via i e "static-tree frame outside a static tree search"
        | Trace.Bursting -> ()))
    events;
  let truncated name =
    emit
      (D.warning ~rule_id:"TRC-TRUNCATED" ~subject:name
         ~paper_ref:automaton_ref
         (name ^ " still open when the trace ends (horizon truncation)"))
  in
  if !in_sts then truncated "static tree search";
  if !in_tts then truncated "time tree search";
  List.rev !diags

let check_accounting ~stats ~completions events =
  match (stats, completions) with
  | None, None -> []
  | _ ->
    let s = Trace.summarize events in
    let busy =
      List.fold_left
        (fun acc e ->
          match e with
          | Trace.Frame_sent { time; finish; _ } -> acc + (finish - time)
          | _ -> acc)
        0 events
    in
    let mismatch subject trace_v stats_v =
      if trace_v = stats_v then None
      else
        Some
          (D.error ~rule_id:"TRC-ACCOUNT" ~subject ~paper_ref:accounting_ref
             (Printf.sprintf "trace counts %d but the channel reports %d"
                trace_v stats_v))
    in
    let vs_stats =
      match stats with
      | None -> []
      | Some st ->
        let idle =
          List.fold_left (fun acc (_, n) -> acc + n) 0 s.Trace.idle_by_phase
        in
        List.filter_map Fun.id
          [
            mismatch "idle slots" idle st.Channel.idle_slots;
            mismatch "collision slots" s.Trace.collision_slots
              st.Channel.collision_slots;
            mismatch "garbled frames" s.Trace.garbled_slots
              st.Channel.garbled_count;
            mismatch "frames" s.Trace.frames st.Channel.tx_count;
            mismatch "busy bit-times" busy st.Channel.busy_bits;
          ]
    in
    let vs_completions =
      match completions with
      | None -> []
      | Some n -> Option.to_list (mismatch "completions" s.Trace.frames n)
    in
    vs_stats @ vs_completions

let check ?(workload = []) ?(deadlines = []) ?(fault_epochs = []) ?stats
    ?completions events =
  let deadlines =
    deadlines
    @ List.map (fun m -> (m.Message.uid, Message.abs_deadline m)) workload
  in
  let epochs =
    List.sort compare (fault_epochs @ epochs_of_events events)
  in
  check_order events @ check_safety events
  @ check_deadlines ~deadlines ~epochs events
  @ check_structure events
  @ check_accounting ~stats ~completions events

let check_run ~workload ~outcome events =
  let fault_epochs =
    match outcome.Run.faults with
    | Some fs -> fs.Run.f_epochs
    | None -> []
  in
  check ~workload ~fault_epochs ?stats:outcome.Run.channel
    ~completions:(List.length outcome.Run.completions)
    events
