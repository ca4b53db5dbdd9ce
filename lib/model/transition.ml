module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Harness = Rtnet_mac.Harness
module Run = Rtnet_stats.Run
module Ddcr = Rtnet_core.Ddcr
module Step = Rtnet_core.Ddcr.Step
module Slot = Rtnet_core.Ddcr.Slot
module Ddcr_params = Rtnet_core.Ddcr_params
module Trace_check = Rtnet_analysis.Trace_check

(* The model's transition relation: the simulator's own slot
   (Ddcr.Slot.step) on a copy of the parent's state.  What the
   simulator samples randomly is the explorer's branching choice, at
   most ONE fault action per slot, handed to the slot as a one-slot
   plan of scheduled fault atoms. *)

type sys = {
  params : Ddcr_params.t;
  inst : Instance.t;
  trace : Message.t list;
  horizon : int; (* bit-times; the replay horizon, not the depth bound *)
}

type node = {
  budget : int; (* remaining fault actions *)
  slot : Slot.t; (* the simulator's state; stepped only on copies *)
}

type action =
  | No_fault
  | Garble (* destroy this slot's lone frame on the wire *)
  | Misperceive of int (* this live synced listener mis-decodes the slot *)
  | Crash of int (* source goes down from this slot *)
  | Revive of int (* source rejoins (listen-only) from this slot *)

type violation =
  | Protocol_error of { time : int; reason : string }
  | Wf_error of { time : int; source : int; reason : string }
  | Missed_resync of { time : int; source : int }
  | Deadline_miss of {
      time : int;
      source : int;
      uid : int;
      finish : int;
      deadline : int;
    }
  | Model_error of { time : int; reason : string }

type step_result =
  | Stepped of node
  | Disabled
  | Violating of violation

let action_label = function
  | No_fault -> "-"
  | Garble -> "garble"
  | Misperceive s -> Printf.sprintf "misperceive(%d)" s
  | Crash s -> Printf.sprintf "crash(%d)" s
  | Revive s -> Printf.sprintf "revive(%d)" s

let describe_violation = function
  | Protocol_error { time; reason } ->
    Printf.sprintf "protocol violation at t=%d: %s" time reason
  | Wf_error { time; source; reason } ->
    Printf.sprintf "ill-formed replica state of source %d at t=%d: %s" source
      time reason
  | Missed_resync { time; source } ->
    Printf.sprintf
      "missed resync at t=%d: source %d still desynchronized at a tree-epoch \
       boundary"
      time source
  | Deadline_miss { time; source; uid; finish; deadline } ->
    Printf.sprintf
      "unexcused deadline miss at t=%d: uid %d of source %d finished at %d, \
       deadline %d, no overlapping fault epoch"
      time uid source finish deadline
  | Model_error { time; reason } ->
    Printf.sprintf "model error at t=%d: %s" time reason

let make ~params ~inst ~trace ~horizon =
  (match Ddcr_params.validate params ~num_sources:inst.Instance.num_sources with
  | Ok () -> ()
  | Error e -> invalid_arg ("Transition.make: " ^ e));
  if params.Ddcr_params.burst_bits <> 0 then
    invalid_arg
      "Transition.make: packet bursting is outside the model (burst_bits must \
       be 0)";
  { params; inst; trace; horizon }

let init sys =
  let slot = Slot.create sys.params sys.inst sys.trace ~horizon:sys.horizon in
  { budget = 0 (* set by the explorer *); slot }

(* The action as a one-slot fault plan of scheduled atoms: the garble
   or misperception at [now], and a [now, now+1) crash window for every
   source down in this slot. *)
let plan_of_action ~z ~now ~alive action =
  let down s =
    match action with
    | Crash c when c = s -> true
    | Revive r when r = s -> false
    | No_fault | Garble | Misperceive _ | Crash _ | Revive _ -> not (alive s)
  in
  let atom =
    match action with
    | Garble -> Fault_plan.garble_at [ now ]
    | Misperceive s -> Fault_plan.misperceive_at [ (s, now) ]
    | No_fault | Crash _ | Revive _ -> Fault_plan.none
  in
  List.init z Fun.id
  |> List.filter down
  |> List.map (fun s -> Fault_plan.crash ~source:s ~from_:now ~until:(now + 1))
  |> List.cons atom |> Fault_plan.merge |> Fault_plan.create ~seed:0

(* Garble and Misperceive count only where the slot shows an effect: a
   lone frame destroyed, a listener's view changed. *)
let took_effect ~pre ~post =
  let h = Slot.harness in
  let misperceived slot s =
    (Harness.source_faults (h slot) s).Run.sf_misperceived
  and garbled slot =
    (Channel.stats (Harness.channel (h slot))).Channel.garbled_count
  in
  function
  | Garble -> garbled post > garbled pre
  | Misperceive s -> misperceived post s > misperceived pre s
  | No_fault | Crash _ | Revive _ -> true

(* The invariants, on the state after the slot that started at [now]. *)
let check sys ~pre ~now nd =
  let z = sys.inst.Instance.num_sources in
  let slot = nd.slot in
  let next_free = Slot.now slot in
  let live_synced s = Slot.alive slot s && Slot.synced slot s in
  let violation = ref None in
  let set v = if !violation = None then violation := Some v in
  (* Slot accounting: every live synced replica structurally
     well-formed. *)
  for s = 0 to z - 1 do
    if live_synced s then
      match Step.wf sys.params ~source:s (Slot.replica slot s) with
      | Ok () -> ()
      | Error reason -> set (Wf_error { time = next_free; source = s; reason })
  done;
  let rec reference s =
    if s >= z then None else if live_synced s then Some s else reference (s + 1)
  in
  (* Lockstep among live synced replicas is the slot's own assertion. *)
  (match reference 0 with
  | None -> ()
  | Some r ->
    (* Resync within one tree epoch: no live station may still be
       desynchronized once the reference reached a boundary (recovery
       must have fired this very slot). *)
    if Step.at_boundary (Slot.replica slot r) then
      for s = 0 to z - 1 do
        if Slot.alive slot s && not (Slot.synced slot s) then
          set (Missed_resync { time = next_free; source = s })
      done);
  (* Timeliness: a frame completed in this slot (at most one: the model
     has no bursting) past its deadline must be excused by an
     overlapping fault epoch of the ledger so far.  Checking at
     completion time is equivalent to checking against the final
     ledger: a future epoch starts at or after this slot's next_free >=
     finish, and the open epoch only grows while it still covers the
     current slot. *)
  let h = Slot.harness slot in
  (match Harness.completions h with
  | { Run.c_msg = m; c_start; c_finish = finish } :: before
    when before == Harness.completions (Slot.harness pre) ->
    let dm = Message.abs_deadline m in
    if
      finish > dm
      && not
           (Trace_check.inside_epoch ~epochs:(Harness.epochs h) ~t0:c_start
              ~dm ~finish)
    then
      set
        (Deadline_miss
           {
             time = now;
             source = m.Message.cls.Message.cls_source;
             uid = m.Message.uid;
             finish;
             deadline = dm;
           })
  | _ -> ());
  match !violation with Some v -> Violating v | None -> Stepped nd

let step sys nd action =
  let z = sys.inst.Instance.num_sources in
  let pre = nd.slot in
  let now = Slot.now pre in
  let alive = Slot.alive pre in
  let enabled, budget =
    match action with
    | No_fault -> (true, nd.budget)
    | Garble -> (nd.budget > 0, nd.budget - 1)
    | Misperceive s ->
      (nd.budget > 0 && alive s && Slot.synced pre s, nd.budget - 1)
    | Crash s -> (nd.budget > 0 && alive s, nd.budget - 1)
    | Revive s -> (not (alive s), nd.budget)
  in
  if not enabled then Disabled
  else begin
    let slot = Slot.copy pre in
    let raised =
      match Slot.step slot (Some (plan_of_action ~z ~now ~alive action)) with
      | () -> None
      | exception Ddcr.Protocol_violation reason ->
        Some (Protocol_error { time = now; reason })
      | exception Harness.Mismatch m ->
        Some (Model_error { time = now; reason = Harness.mismatch_message m })
    in
    if not (took_effect ~pre ~post:slot action) then Disabled
    else
      match raised with
      | Some v -> Violating v
      | None -> check sys ~pre ~now { budget; slot }
  end

(* Canonical state key for dedup: every field that influences any
   future transition or invariant, serialized into one string.  Two
   nodes with equal keys have identical futures, so the explorer keeps
   only the first trail that reaches each key. *)
let key sys nd =
  let slot = nd.slot in
  let h = Slot.harness slot in
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int (Slot.now slot));
  Buffer.add_char b '|';
  (* The undelivered arrivals are a suffix of the sorted trace: the uid
     of the first one identifies it. *)
  (match Harness.pending h with
  | m :: _ -> Buffer.add_string b (string_of_int m.Message.uid)
  | [] -> Buffer.add_char b '-');
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int nd.budget);
  for s = 0 to sys.inst.Instance.num_sources - 1 do
    let st = Slot.replica slot s in
    Buffer.add_char b '|';
    Buffer.add_string b (string_of_int s);
    Buffer.add_char b (if Slot.synced slot s then 's' else 'd');
    Buffer.add_char b (if Slot.alive slot s then 'a' else 'x');
    Buffer.add_string b (Step.fingerprint st);
    Buffer.add_char b '#';
    Buffer.add_string b (string_of_int st.Step.rank);
    Buffer.add_char b (if st.Step.last_out then 'o' else '-')
  done;
  for s = 0 to sys.inst.Instance.num_sources - 1 do
    Buffer.add_char b '|';
    List.iter
      (fun m ->
        Buffer.add_string b (string_of_int m.Message.uid);
        Buffer.add_char b ',')
      (Harness.queued h s)
  done;
  Buffer.add_char b '|';
  List.iter
    (fun (s, e) -> Buffer.add_string b (Printf.sprintf "[%d,%d)" s e))
    (Harness.epochs h);
  Buffer.contents b
