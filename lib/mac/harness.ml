module Message = Rtnet_workload.Message
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Edf_queue = Rtnet_edf.Edf_queue
module Run = Rtnet_stats.Run
module Sink = Rtnet_telemetry.Sink

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

(* [Arrival.to_trace] already returns (arrival, uid) order: one pass
   that allocates nothing checks it, and only a trace out of order is
   sorted. *)
let rec in_order = function
  | a :: (b :: _ as rest) -> arrival_order a b <= 0 && in_order rest
  | [ _ ] | [] -> true

let sorted trace = if in_order trace then trace else List.sort arrival_order trace

(* Everything one slot reads and writes, updated in place. *)
type t = {
  protocol : string;
  num_sources : int;
  horizon : int;
  analyze : bool;
  sink : Sink.t;
  inject : (now:int -> Message.t list) option;
  channel : Channel.t;
  queues : Edf_queue.t array;
  (* Per source, kept equal to its queue's head: the head's absolute
     deadline ([max_int] when empty) and the attempt sending it, built
     on first demand ([no_attempt] until then). *)
  heads : int array;
  head_att : Channel.attempt array;
  mutable queued_total : int; (* messages in all queues *)
  mutable arrivals : Message.t list; (* undelivered, in arrival order *)
  mutable now : int; (* start of the next slot *)
  mutable completions : Run.completion list; (* most recent first *)
  mutable completed : int; (* length of [completions] *)
  mutable dropped : Message.t list; (* most recent first *)
  mutable wire : Channel.resolution; (* what all observe without a plan *)
  mutable planned : bool; (* the last slot ran under a fault plan *)
  (* Per-source fault bookkeeping (only written under a plan). *)
  alive : bool array;
  (* [own_view.(s)]: [s] is one of this slot's deviants and observes
     [observed.(s)]; every other station observes [wire], so a slot
     stores nothing for the stations that agree with the wire. *)
  own_view : bool array;
  observed : Channel.resolution array;
  crashed_slots : int array;
  missed : int array;
  misperceived : int array;
  desync_slots : int array;
  resyncs : int array;
  mutable slot_faulty : bool;
  mutable deviants : int list; (* down or misperceiving in this slot *)
  (* Fault epochs, merged on the fly: adjacent/overlapping faulty slots
     coalesce because the next slot starts exactly at this one's
     [next_free]. *)
  mutable epochs : (int * int) list; (* closed, most recent first *)
  (* The open epoch [\[open_from, open_until)], held in place so that
     extending it allocates nothing; [open_from] is -1 when none is
     open. *)
  mutable open_from : int;
  mutable open_until : int;
  participant : bool array; (* scratch, cleared by each slot: shared *)
}

let note_epoch st ~start ~finish =
  if st.open_from >= 0 && start <= st.open_until then
    st.open_until <- max st.open_until finish
  else begin
    if st.open_from >= 0 then
      st.epochs <- (st.open_from, st.open_until) :: st.epochs;
    st.open_from <- start;
    st.open_until <- finish
  end

(* A constant, so nothing is allocated at start-up. *)
let no_attempt =
  { Channel.att_source = -1; att_tag = -1; att_bits = 0; att_key = (0, -1) }

(* After [s]'s head changed. *)
let refresh st s =
  let q = st.queues.(s) in
  st.heads.(s) <-
    (if Edf_queue.is_empty q then max_int
     else Message.abs_deadline (Edf_queue.head q));
  st.head_att.(s) <- no_attempt

let rec deliver_from st now = function
  | m :: rest when m.Message.arrival <= now ->
    let s = m.Message.cls.Message.cls_source in
    if s < 0 || s >= st.num_sources then
      failwith
        (Printf.sprintf
           "harness: arrival for unknown source %d (instance has %d sources)"
           s st.num_sources);
    let q = Edf_queue.insert st.queues.(s) m in
    st.queues.(s) <- q;
    st.queued_total <- st.queued_total + 1;
    if Edf_queue.head q == m then refresh st s;
    if st.sink.Sink.enabled then st.sink.Sink.enqueue ~now ~msg:m;
    deliver_from st now rest
  | rest -> st.arrivals <- rest

let deliver_until st now = deliver_from st now st.arrivals

let analyze_failure fmt =
  Printf.ksprintf (fun msg -> failwith ("harness analyze: " ^ msg)) fmt

(* [analyze], checked as each completion is recorded: the completion
   must be the frame the channel carried last, and no earlier carried
   frame may still lack its completion.  With the channel's own
   overlap assertion this makes the completion list equal, in order,
   to the frames the wire carried.  Plain int comparisons on the
   channel's in-place record: nothing allocates unless it fails. *)
let check_completion st m ~start ~finish =
  let src = m.Message.cls.Message.cls_source and uid = m.Message.uid in
  let carried = Channel.last_carried st.channel in
  if Channel.tx_count st.channel <> st.completed + 1 then
    analyze_failure
      "completion (src %d uid %d [%d, %d)) recorded as completion %d but the \
       channel carried %d frames"
      src uid start finish (st.completed + 1) (Channel.tx_count st.channel)
  else if
    carried.Channel.c_src <> src
    || carried.Channel.c_tag <> uid
    || carried.Channel.c_start <> start
    || carried.Channel.c_finish <> finish
  then
    analyze_failure
      "completion (src %d uid %d [%d, %d)) disagrees with the channel's last \
       carried frame (src %d tag %d [%d, %d))"
      src uid start finish carried.Channel.c_src carried.Channel.c_tag
      carried.Channel.c_start carried.Channel.c_finish

let complete st m ~start ~finish =
  if st.analyze then check_completion st m ~start ~finish;
  st.completed <- st.completed + 1;
  if st.sink.Sink.enabled then st.sink.Sink.complete ~msg:m ~start ~finish;
  st.completions <-
    { Run.c_msg = m; c_start = start; c_finish = finish } :: st.completions

(* Removes [src]'s head, which the caller has read. *)
let remove_head st src =
  st.queues.(src) <- Edf_queue.rest st.queues.(src);
  st.queued_total <- st.queued_total - 1;
  refresh st src

let pop st src =
  let q = st.queues.(src) in
  if Edf_queue.is_empty q then None
  else begin
    let m = Edf_queue.head q in
    remove_head st src;
    Some m
  end

let create ~protocol ~analyze ~sink ~inject ~phy ~num_sources ~horizon trace =
  let per_source v = Array.make num_sources v in
  {
    protocol;
    num_sources;
    horizon;
    analyze;
    sink;
    inject;
    channel = Channel.create phy;
    queues = per_source Edf_queue.empty;
    heads = per_source max_int;
    head_att = per_source no_attempt;
    queued_total = 0;
    arrivals = sorted trace;
    now = 0;
    completions = [];
    completed = 0;
    dropped = [];
    wire = Channel.Idle;
    planned = false;
    alive = per_source true;
    own_view = per_source false;
    observed = per_source Channel.Idle;
    crashed_slots = per_source 0;
    missed = per_source 0;
    misperceived = per_source 0;
    desync_slots = per_source 0;
    resyncs = per_source 0;
    slot_faulty = false;
    deviants = [];
    epochs = [];
    open_from = -1;
    open_until = 0;
    participant = per_source false;
  }

let copy st =
  {
    st with
    channel = Channel.copy st.channel;
    queues = Array.copy st.queues;
    heads = Array.copy st.heads;
    head_att = Array.copy st.head_att;
    alive = Array.copy st.alive;
    own_view = Array.copy st.own_view;
    observed = Array.copy st.observed;
    crashed_slots = Array.copy st.crashed_slots;
    missed = Array.copy st.missed;
    misperceived = Array.copy st.misperceived;
    desync_slots = Array.copy st.desync_slots;
    resyncs = Array.copy st.resyncs;
  }

let mismatch ~now src tag reason =
  Mismatch { mm_slot = now; mm_source = src; mm_tag = tag; mm_reason = reason }

let take st ~now src tag =
  let q = st.queues.(src) in
  if Edf_queue.is_empty q then
    raise (mismatch ~now src tag "transmitted from an empty queue");
  let m = Edf_queue.head q in
  if m.Message.uid <> tag then
    raise
      (mismatch ~now src tag
         (Printf.sprintf "transmitted tag disagrees with the EDF head (uid %d)"
            m.Message.uid));
  remove_head st src;
  m

(* A crashed source transmits nothing, whatever the protocol's
   decision callback returned. *)
let rec all_alive alive = function
  | [] -> true
  | a :: rest -> alive.(a.Channel.att_source) && all_alive alive rest

let rec clear_views own_view = function
  | [] -> ()
  | s :: rest ->
    own_view.(s) <- false;
    clear_views own_view rest

let rec mark participant v = function
  | [] -> ()
  | a :: rest ->
    participant.(a.Channel.att_source) <- v;
    mark participant v rest

(* Under a plan: each live source's local observation of the slot
   (misperception draws), each crashed source's missed slots. *)
let observe st plan ~now resolution attempts =
  mark st.participant true attempts;
  (match resolution with
  | Channel.Garbled _ ->
    (* Wire-level noise destroyed a frame: the slot is degraded even
       though everyone observed it consistently. *)
    st.slot_faulty <- true
  | _ -> ());
  for s = 0 to st.num_sources - 1 do
    if not st.alive.(s) then begin
      st.own_view.(s) <- true;
      st.observed.(s) <- Channel.Idle;
      match resolution with
      | Channel.Idle -> ()
      | _ -> st.missed.(s) <- st.missed.(s) + 1
    end
    else begin
      let flips = Fault_plan.misperceives plan ~source:s ~now in
      let obs =
        if flips && not st.participant.(s) then misperceived_view resolution
        else resolution
      in
      (* The physical test first: an unflipped view is the wire value
         itself, and the structural one walks the slot's contender
         list. *)
      if obs != resolution && obs <> resolution then begin
        st.own_view.(s) <- true;
        st.observed.(s) <- obs;
        st.misperceived.(s) <- st.misperceived.(s) + 1;
        st.deviants <- s :: st.deviants;
        st.slot_faulty <- true
      end
    end
  done;
  mark st.participant false attempts

(* Bridge ingress (multi-hop topologies): the injector may hand the
   harness new messages at any slot boundary; they join the arrival
   stream and become visible to the EDF queues exactly like trace
   arrivals (at the first boundary at or after their arrival time).
   Inlined: a call here cost every slot a few percent (EXPERIMENTS.md,
   "One interface from a protocol to the slot"). *)
let[@inline] poll_inject st ~now =
  match st.inject with
  | None -> ()
  | Some f -> (
    match f ~now with
    | [] -> ()
    | injected ->
      st.arrivals <-
        List.merge arrival_order (List.sort arrival_order injected)
          st.arrivals)

let slot st faults p ~decide ~after =
  let now = st.now in
  let sink = st.sink in
  poll_inject st ~now;
  deliver_until st now;
  st.slot_faulty <- false;
  clear_views st.own_view st.deviants;
  st.deviants <- [];
  (match faults with
  | None -> st.planned <- false
  | Some plan ->
    st.planned <- true;
    for s = 0 to st.num_sources - 1 do
      let a = Fault_plan.alive plan ~source:s ~now in
      st.alive.(s) <- a;
      if not a then begin
        st.crashed_slots.(s) <- st.crashed_slots.(s) + 1;
        st.deviants <- s :: st.deviants;
        st.slot_faulty <- true
      end
    done);
  let attempts = decide p ~now in
  let attempts =
    match faults with
    | Some _ when not (all_alive st.alive attempts) ->
      List.filter (fun a -> st.alive.(a.Channel.att_source)) attempts
    | Some _ | None -> attempts
  in
  let resolution = Channel.contend st.channel faults ~now attempts in
  let next_free = Channel.free_at st.channel in
  if sink.Sink.enabled then sink.Sink.slot ~now ~next_free ~resolution;
  st.wire <- resolution;
  (match faults with
  | None -> ()
  | Some plan -> observe st plan ~now resolution attempts);
  (match resolution with
  | Channel.Idle | Channel.Garbled _ | Channel.Clash { survivor = None; _ } ->
    ()
  | Channel.Tx { src; tag; on_wire } ->
    let m = take st ~now src tag in
    complete st m ~start:now ~finish:(now + on_wire)
  | Channel.Clash { survivor = Some (src, tag, on_wire); _ } ->
    let m = take st ~now src tag in
    let start = now + Channel.slot_bits st.channel in
    complete st m ~start ~finish:(start + on_wire));
  let next_free = after p ~now ~resolution ~next_free in
  if st.analyze && Channel.tx_count st.channel <> st.completed then
    analyze_failure
      "slot at t=%d: the channel carried %d frames but %d completions were \
       recorded"
      now (Channel.tx_count st.channel) st.completed;
  if st.slot_faulty then note_epoch st ~start:now ~finish:next_free;
  st.now <- next_free

let now h = h.now
let channel h = h.channel
let peek h src = Edf_queue.peek h.queues.(src)

let drop h m =
  if h.sink.Sink.enabled then h.sink.Sink.drop ~msg:m;
  h.dropped <- m :: h.dropped

let alive h src = h.alive.(src)
let observed h src = if h.own_view.(src) then h.observed.(src) else h.wire

let mark_desync h src =
  h.desync_slots.(src) <- h.desync_slots.(src) + 1;
  h.slot_faulty <- true

let mark_resync h src = h.resyncs.(src) <- h.resyncs.(src) + 1
let head_deadlines h = h.heads

let head_attempt h s =
  let a = h.head_att.(s) in
  if a != no_attempt then a
  else begin
    let m = Edf_queue.head h.queues.(s) in
    let a =
      {
        Channel.att_source = s;
        att_tag = m.Message.uid;
        att_bits = m.Message.cls.Message.cls_bits;
        att_key = (Message.abs_deadline m, s);
      }
    in
    h.head_att.(s) <- a;
    a
  end

let deviants h = h.deviants
let queued h src = Edf_queue.to_sorted_list h.queues.(src)
let queued_total h = h.queued_total
let pending h = h.arrivals
let completions h = h.completions

let epochs h =
  List.rev
    (if h.open_from >= 0 then (h.open_from, h.open_until) :: h.epochs
     else h.epochs)

let source_faults h s =
  {
    Run.sf_source = s;
    sf_crashed_slots = h.crashed_slots.(s);
    sf_missed = h.missed.(s);
    sf_misperceived = h.misperceived.(s);
    sf_desync_slots = h.desync_slots.(s);
    sf_resyncs = h.resyncs.(s);
  }

let finish st =
  (* A hand-off arriving after the last slot start but before the
     horizon was never polled: it is unfinished like a trace arrival. *)
  poll_inject st ~now:(st.horizon - 1);
  let unfinished =
    Array.fold_left (fun acc q -> acc @ Edf_queue.to_sorted_list q) [] st.queues
    @ List.filter (fun m -> m.Message.arrival < st.horizon) st.arrivals
  in
  let faults =
    if not st.planned then None
    else begin
      let epochs = epochs st in
      if st.sink.Sink.enabled then
        List.iter
          (fun (start, finish) -> st.sink.Sink.epoch ~start ~finish)
          epochs;
      Some
        {
          Run.f_per_source = List.init st.num_sources (source_faults st);
          f_epochs = epochs;
        }
    end
  in
  {
    Run.protocol = st.protocol;
    completions = List.rev st.completions;
    unfinished;
    dropped = List.rev st.dropped;
    horizon = st.horizon;
    channel = Some (Channel.stats st.channel);
    faults;
  }

let run ~protocol ?plan ?(analyze = true) ?(sink = Sink.null) ?inject ~phy
    ~num_sources ~horizon ~decide ~after trace =
  let h =
    create ~protocol ~analyze ~sink ~inject ~phy ~num_sources ~horizon trace
  in
  let rec loop () =
    slot h plan h ~decide ~after;
    if now h < horizon then loop ()
  in
  loop ();
  finish h
