module Trace = Rtnet_core.Ddcr_trace
module Message = Rtnet_workload.Message
module Channel = Rtnet_channel.Channel
module Run = Rtnet_stats.Run
module D = Diagnostic

let safety_ref = "safety property <p.HRTDM>, Section 4.2"
let timeliness_ref = "timeliness property DM = T + d, Section 4.3"
let automaton_ref = "Section 3.2 automaton"

let time_of = function
  | Trace.Idle_slot { time; _ } | Trace.Collision_slot { time; _ }
  | Trace.Garbled_slot { time; _ } | Trace.Frame_sent { time; _ }
  | Trace.Tts_begin { time; _ } | Trace.Tts_end { time; _ }
  | Trace.Sts_begin { time; _ } | Trace.Sts_end { time; _ }
  | Trace.Crash { time; _ } | Trace.Rejoin { time; _ }
  | Trace.Desync { time; _ } | Trace.Resync { time; _ } -> time

let inside_epoch ~epochs ~t0 ~dm ~finish =
  let lo = min t0 dm in
  List.exists (fun (s, e) -> s < finish && lo < e) epochs

(* [inside_epoch ~epochs] for many frames.  Sorted by start, the epochs
   that start before [finish] are a prefix, found by binary search, and
   one of them ends after [min t0 dm] iff the furthest end the prefix
   reaches does. *)
let excuser epochs =
  let sorted = Array.of_list (List.sort compare epochs) in
  let reach = Array.map snd sorted in
  Array.iteri (fun i e -> if i > 0 then reach.(i) <- max e reach.(i - 1)) reach;
  fun ~t0 ~dm ~finish ->
    let rec starting_before lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst sorted.(mid) < finish then starting_before (mid + 1) hi
        else starting_before lo mid
    in
    let k = starting_before 0 (Array.length sorted) in
    k > 0 && min t0 dm < reach.(k - 1)

(* A frame on the wire; TRC-SAFETY sorts frames in this field order. *)
type frame = { start : int; finish : int; source : int; uid : int }

(* Timeliness findings wait, newest first, for the fault epochs. *)
type timing = Late of frame * int | Unknown_uid of int

(* An order, nesting, phase or via error at the [index]-th event. *)
type flaw = { rule : string; index : int; event : Trace.event; message : string }

type monitor = {
  deadline_of : (int, int) Hashtbl.t option;
  opened : (int, int) Hashtbl.t;  (* degraded station -> span start *)
  mutable spans : (int * int) list;  (* closed degraded spans *)
  mutable index : int; mutable latest : int;
  mutable order : flaw list; mutable structure : flaw list;
  mutable frames : frame list;  (* newest first *)
  mutable timing : timing list;
  mutable in_tts : bool; mutable in_sts : bool;
  (* slot and bit-time counts, for TRC-ACCOUNT *)
  mutable idle : int; mutable collisions : int;
  mutable garbled : int; mutable busy : int;
}

let monitor ?(workload = []) ?(deadlines = []) () =
  let deadline_of =
    if workload = [] && deadlines = [] then None
    else
      let tbl = Hashtbl.create (List.length deadlines + List.length workload) in
      List.iter (fun (uid, dm) -> Hashtbl.replace tbl uid dm) deadlines;
      List.iter
        (fun m -> Hashtbl.replace tbl m.Message.uid (Message.abs_deadline m))
        workload;
      Some tbl
  in
  { deadline_of; opened = Hashtbl.create 8; spans = []; index = 0;
    latest = min_int; order = []; structure = []; frames = []; timing = [];
    in_tts = false; in_sts = false; idle = 0; collisions = 0; garbled = 0;
    busy = 0 }

let flaw m e rule message = { rule; index = m.index; event = e; message }
let flag m e rule message = m.structure <- flaw m e rule message :: m.structure

(* Slot phases, brackets and frame paths against the automaton of
   Section 3.2. *)
let check_phase m e phase =
  let bad = flag m e "TRC-PHASE" in
  match phase with
  | "tts" ->
    if not (m.in_tts && not m.in_sts) then
      bad "slot in phase \"tts\" outside a time tree search"
  | "sts" ->
    if not m.in_sts then
      bad "slot in phase \"sts\" outside a static tree search"
  | "free" | "attempt" ->
    if m.in_tts || m.in_sts then
      bad (Printf.sprintf "slot in phase %S inside a tree search" phase)
  | other -> bad (Printf.sprintf "unknown phase %S" other)

let check_bracket m e =
  let bad = flag m e "TRC-NESTING" in
  match e with
  | Trace.Tts_begin _ ->
    if m.in_tts then bad "time tree search started inside another";
    m.in_tts <- true;
    m.in_sts <- false
  | Trace.Tts_end _ ->
    if not m.in_tts then bad "time tree search ended but none is open";
    if m.in_sts then bad "time tree search ended inside a static tree search";
    m.in_tts <- false;
    m.in_sts <- false
  | Trace.Sts_begin _ ->
    if not m.in_tts then
      bad "static tree search started outside a time tree search";
    if m.in_sts then bad "static tree search started inside another";
    m.in_sts <- true
  | _ ->
    if not m.in_sts then bad "static tree search ended but none is open";
    m.in_sts <- false

let check_frame m e ({ finish; uid; _ } as frame) via =
  m.frames <- frame :: m.frames;
  m.busy <- m.busy + (finish - frame.start);
  (match Option.map (fun tbl -> Hashtbl.find_opt tbl uid) m.deadline_of with
  | Some (Some dm) when finish > dm -> m.timing <- Late (frame, dm) :: m.timing
  | Some None -> m.timing <- Unknown_uid uid :: m.timing
  | Some (Some _) | None -> ());
  let bad = flag m e "TRC-VIA" in
  match via with
  | Trace.Free_csma | Trace.Open_attempt ->
    if m.in_tts || m.in_sts then
      bad (Format.asprintf "%a frame inside a tree search" Trace.pp_via via)
  | Trace.Time_tree ->
    if not (m.in_tts && not m.in_sts) then
      bad "time-tree frame outside a time tree search"
  | Trace.Static_tree ->
    if not m.in_sts then bad "static-tree frame outside a static tree search"
  | Trace.Bursting -> ()

let observe m e =
  let t = time_of e in
  if t < m.latest then
    m.order <-
      flaw m e "TRC-ORDER"
        (Printf.sprintf "timestamp %d precedes previous event at %d" t m.latest)
      :: m.order;
  m.latest <- max m.latest t;
  (match e with
  | Trace.Tts_begin _ | Trace.Tts_end _ | Trace.Sts_begin _ | Trace.Sts_end _
    ->
    check_bracket m e
  | Trace.Idle_slot { phase; _ } ->
    check_phase m e phase;
    m.idle <- m.idle + 1
  | Trace.Collision_slot { phase; contenders; _ } ->
    check_phase m e phase;
    if contenders < 2 then
      flag m e "TRC-PHASE"
        (Printf.sprintf "collision slot with %d contender(s)" contenders);
    m.collisions <- m.collisions + 1
  | Trace.Garbled_slot _ -> m.garbled <- m.garbled + 1
  | Trace.Frame_sent { time; finish; source; uid; via } ->
    check_frame m e { start = time; finish; source; uid } via
  (* Fault events lie outside the bracket structure (the synced sources
     carry the search on); they open and close degraded spans. *)
  | Trace.Crash { time; source }
  | Trace.Desync { time; source }
  | Trace.Rejoin { time; source } ->
    if not (Hashtbl.mem m.opened source) then
      Hashtbl.replace m.opened source time
  | Trace.Resync { time; source } when Hashtbl.mem m.opened source ->
    m.spans <- (Hashtbl.find m.opened source, time) :: m.spans;
    Hashtbl.remove m.opened source
  | Trace.Resync _ -> ());
  m.index <- m.index + 1

type findings = {
  safety : string option;
  misses : int;
  first_miss : int option;
  degraded : int list;
  other_error : (string * string) option;
  diagnostics : D.t list Lazy.t;
}

let at_event paper_ref f =
  D.error ~rule_id:f.rule ~paper_ref f.message
    ~subject:(Format.asprintf "event %d (%a)" f.index Trace.pp_event f.event)

let overlap_message (a, b) =
  Printf.sprintf
    "source %d's frame [%d, %d) overlaps source %d's frame starting at %d"
    a.source a.start a.finish b.source b.start

let overlap ((a, b) as pair) =
  D.error ~rule_id:"TRC-SAFETY" ~paper_ref:safety_ref
    ~subject:(Printf.sprintf "frames uid=%d uid=%d" a.uid b.uid)
    (overlap_message pair)

let timeliness excused = function
  | Late (f, dm) ->
    let subject = Printf.sprintf "uid=%d" f.uid in
    let lateness =
      Printf.sprintf
        "source %d's frame finishes at %d, %d bit-times after its absolute \
         deadline %d"
        f.source f.finish (f.finish - dm) dm
    in
    if excused ~t0:f.start ~dm ~finish:f.finish then
      D.warning ~rule_id:"TRC-DEGRADED" ~subject ~paper_ref:timeliness_ref
        (lateness
        ^ " — inside a fault epoch, so degradation, not a timeliness \
           violation")
    else
      D.error ~rule_id:"TRC-DEADLINE" ~subject ~paper_ref:timeliness_ref
        lateness
  | Unknown_uid uid ->
    D.warning ~rule_id:"TRC-UID" ~paper_ref:timeliness_ref
      ~subject:(Printf.sprintf "uid=%d" uid)
      "frame uid does not appear in the workload; timeliness not checkable"

let truncated name =
  D.warning ~rule_id:"TRC-TRUNCATED" ~subject:name ~paper_ref:automaton_ref
    (name ^ " still open when the trace ends (horizon truncation)")

let account_message (_, in_trace, in_stats) =
  Printf.sprintf "trace counts %d but the channel reports %d" in_trace
    in_stats

let account ((subject, _, _) as a) =
  D.error ~rule_id:"TRC-ACCOUNT" ~subject
    ~paper_ref:"slot accounting, Section 4.1" (account_message a)

(* Over frames in descending order, so the pairs come out ascending. *)
let rec overlaps acc = function
  | b :: (a :: _ as rest) ->
    overlaps (if b.start < a.finish then (a, b) :: acc else acc) rest
  | [ _ ] | [] -> acc

let rec descending = function
  | b :: (a :: _ as rest) -> compare b a >= 0 && descending rest
  | [ _ ] | [] -> true

let finish ?(fault_epochs = []) ?stats ?completions m =
  (* A run emits its frames in order, so [m.frames] is already sorted. *)
  let overlaps =
    overlaps []
      (if descending m.frames then m.frames
       else List.sort (fun a b -> compare b a) m.frames)
  in
  (* Spans still open when the trace ends run just past its last event. *)
  let last = max 0 m.latest + 1 in
  let excused =
    excuser
      (Hashtbl.fold (fun _ s acc -> (s, last) :: acc) m.opened
         (fault_epochs @ m.spans))
  in
  (* [m.timing] is newest first, so the last miss folded is the first. *)
  let misses, first_miss =
    List.fold_left
      (fun (n, first) -> function
        | Late (f, dm) when not (excused ~t0:f.start ~dm ~finish:f.finish) ->
          (n + 1, Some f.uid)
        | Late _ | Unknown_uid _ -> (n, first))
      (0, None) m.timing
  in
  let frames = List.length m.frames in
  let accounting =
    List.filter
      (fun (_, a, b) -> a <> b)
      ((match stats with
       | None -> []
       | Some st ->
         [ ("idle slots", m.idle, st.Channel.idle_slots);
           ("collision slots", m.collisions, st.Channel.collision_slots);
           ("garbled frames", m.garbled, st.Channel.garbled_count);
           ("frames", frames, st.Channel.tx_count);
           ("busy bit-times", m.busy, st.Channel.busy_bits) ])
      @ Option.fold ~none:[] ~some:(fun n -> [ ("completions", frames, n) ])
          completions)
  in
  let order = List.rev m.order and structure = List.rev m.structure in
  {
    safety = Option.map overlap_message (List.nth_opt overlaps 0);
    misses;
    first_miss;
    degraded =
      List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) m.opened []);
    other_error =
      (match order @ structure with
      | f :: _ -> Some (f.rule, f.message)
      | [] ->
        Option.map
          (fun a -> ("TRC-ACCOUNT", account_message a))
          (List.nth_opt accounting 0));
    diagnostics =
      lazy
        (List.concat
           [
             List.map (at_event "slotted medium model, Section 2.1") order;
             List.map overlap overlaps;
             List.rev_map (timeliness excused) m.timing;
             List.map (at_event automaton_ref) structure;
             (if m.in_sts then [ truncated "static tree search" ] else []);
             (if m.in_tts then [ truncated "time tree search" ] else []);
             List.map account accounting;
           ]);
  }

let finish_run ~(outcome : Run.outcome) m =
  let epochs fs = fs.Run.f_epochs in
  finish ?stats:outcome.channel ~completions:(List.length outcome.completions)
    ~fault_epochs:(Option.fold ~none:[] ~some:epochs outcome.faults) m

let check ?workload ?deadlines ?fault_epochs ?stats ?completions events =
  let m = monitor ?workload ?deadlines () in
  List.iter (observe m) events;
  Lazy.force (finish ?fault_epochs ?stats ?completions m).diagnostics

let check_run ~workload ~outcome events =
  let m = monitor ~workload () in
  List.iter (observe m) events;
  Lazy.force (finish_run ~outcome m).diagnostics
