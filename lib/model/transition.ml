module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Phy = Rtnet_channel.Phy
module Edf_queue = Rtnet_edf.Edf_queue
module Ddcr = Rtnet_core.Ddcr
module Step = Rtnet_core.Ddcr.Step
module Ddcr_params = Rtnet_core.Ddcr_params

(* The model's transition relation: one contention slot of the whole
   system — arrivals, per-replica decisions, channel resolution, local
   observations, divergence detection and recovery — as a pure function
   of (node, fault action).  Every deterministic piece reuses the
   production code (Step.decide / Step.observe, EDF queues); what the
   simulator samples randomly (garbles, misperceptions, crash windows)
   is the explorer's branching choice, at most ONE fault action per
   slot.  A node therefore corresponds exactly to one reachable
   configuration of Ddcr.run_trace under some scheduled fault plan,
   which is what lets Witness replay any trail byte-identically. *)

type sys = {
  params : Ddcr_params.t;
  inst : Instance.t;
  arrivals : Message.t array; (* the full trace, sorted by (arrival, uid) *)
  horizon : int; (* bit-times; the replay horizon, not the depth bound *)
}

type node = {
  time : int; (* start of the next contention slot, bit-times *)
  arr : int; (* arrivals.(i) for i < arr have been delivered *)
  queues : Edf_queue.t array;
  replicas : Step.state array;
  synced : bool array;
  crashed : bool array; (* inside a model crash (explicit Revive ends it) *)
  budget : int; (* remaining fault actions *)
  epochs : (int * int) list; (* closed fault epochs, most recent first *)
  epoch_open : (int * int) option; (* the growing current epoch *)
  (* History only (no future depends on it, so [key] leaves it out):
     what Harness.run reports for the same schedule. *)
  completed : (int * int * int) list; (* (uid, start, finish), latest first *)
  desync_slots : int array; (* per source, as Harness mark_desync counts *)
  resyncs : int array; (* per source, as Harness mark_resync counts *)
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
  | Lockstep_broken of {
      time : int;
      reference : int;
      source : int;
      ref_fp : string;
      fp : string;
    }
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
  | Lockstep_broken { time; reference; source; ref_fp; fp } ->
    Printf.sprintf
      "lockstep broken at t=%d: source %d [%s] disagrees with reference %d \
       [%s] after recovery"
      time source fp reference ref_fp
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
  let arrivals =
    Array.of_list (List.sort Rtnet_mac.Harness.arrival_order trace)
  in
  { params; inst; arrivals; horizon }

let init sys =
  let z = sys.inst.Instance.num_sources in
  {
    time = 0;
    arr = 0;
    queues = Array.make z Edf_queue.empty;
    replicas = Array.make z Step.init;
    synced = Array.make z true;
    crashed = Array.make z false;
    budget = 0 (* set by the explorer *);
    epochs = [];
    epoch_open = None;
    completed = [];
    desync_slots = Array.make z 0;
    resyncs = Array.make z 0;
  }

(* Mirrors Harness.note_epoch: adjacent/overlapping faulty slots
   coalesce because the next slot starts exactly at this one's
   next_free. *)
let note_epoch nd ~start ~finish =
  match nd.epoch_open with
  | Some (s, e) when start <= e -> { nd with epoch_open = Some (s, max e finish) }
  | Some span -> { nd with epochs = span :: nd.epochs; epoch_open = Some (start, finish) }
  | None -> { nd with epoch_open = Some (start, finish) }

(* Mirrors Trace_check.inside_epoch over the epochs recorded so far
   (closed plus open).  Checking at completion time is equivalent to
   checking against the final epoch list: a future epoch starts at or
   after this slot's next_free >= finish, so it can never satisfy
   s < finish; and the open epoch can only grow while it still covers
   the current slot, in which case it already excuses it. *)
let inside_epoch nd ~t0 ~dm ~finish =
  let lo = min t0 dm in
  let hit (s, e) = s < finish && lo < e in
  List.exists hit nd.epochs
  || match nd.epoch_open with Some span -> hit span | None -> false

let exists_src z p =
  let rec go s = s < z && (p s || go (s + 1)) in
  go 0

(* One slot.  Applies [action], then mirrors, in order: the harness
   slot body (deliver, liveness refresh, decide, contend, per-source
   observation, completion) and Ddcr.run_trace's [after] (liveness
   edges, per-replica observe on the OWN observation, Step.plurality
   divergence detection, desync accounting, cold restart, boundary
   resync), then the harness epoch note — and checks the invariants. *)
let step sys nd action =
  let z = sys.inst.Instance.num_sources in
  let phy = sys.inst.Instance.phy in
  let slot = phy.Phy.slot_bits in
  let now = nd.time in
  (* Fault action: liveness changes apply from this slot's start (the
     harness refreshes per-source liveness before [decide]). *)
  let enabled, budget, crashed =
    match action with
    | No_fault -> (true, nd.budget, nd.crashed)
    | Garble | Misperceive _ ->
      (nd.budget > 0, nd.budget - 1, nd.crashed)
    | Crash s ->
      if nd.budget > 0 && not nd.crashed.(s) then begin
        let crashed = Array.copy nd.crashed in
        crashed.(s) <- true;
        (true, nd.budget - 1, crashed)
      end
      else (false, nd.budget, nd.crashed)
    | Revive s ->
      if nd.crashed.(s) then begin
        let crashed = Array.copy nd.crashed in
        crashed.(s) <- false;
        (true, nd.budget, crashed)
      end
      else (false, nd.budget, nd.crashed)
  in
  if not enabled then Disabled
  else begin
    let alive s = not crashed.(s) in
    (* Deliver arrivals with T <= now. *)
    let queues = Array.copy nd.queues in
    let arr = ref nd.arr in
    while
      !arr < Array.length sys.arrivals
      && sys.arrivals.(!arr).Message.arrival <= now
    do
      let m = sys.arrivals.(!arr) in
      let s = m.Message.cls.Message.cls_source in
      queues.(s) <- Edf_queue.insert queues.(s) m;
      incr arr
    done;
    let slot_faulty = ref (exists_src z (fun s -> crashed.(s))) in
    (* Decisions of the live synced replicas, in source order (crashed
       sources transmit nothing; desynced stations are listen-only). *)
    let attempts = ref [] in
    for s = z - 1 downto 0 do
      if alive s && nd.synced.(s) then
        match
          Step.decide sys.params ~source:s nd.replicas.(s)
            ~msg_star:(Edf_queue.peek queues.(s))
        with
        | Some a -> attempts := a :: !attempts
        | None -> ()
    done;
    let attempts = !attempts in
    (* A Garble action needs a lone frame to destroy; a Misperceive
       needs a live synced listener whose mapped view differs. *)
    match (action, attempts) with
    | Garble, ([] | _ :: _ :: _) -> Disabled
    | _ -> (
      (* Channel resolution (pure mirror of Channel.contend with the
         chosen garble). *)
      let resolution, next_free =
        match attempts with
        | [] -> (Channel.Idle, now + slot)
        | [ a ] ->
          let on_wire = Phy.tx_bits phy a.Channel.att_bits in
          if action = Garble then (Channel.Garbled { on_wire }, now + on_wire)
          else
            ( Channel.Tx
                { src = a.Channel.att_source; tag = a.Channel.att_tag; on_wire },
              now + on_wire )
        | contenders -> (
          let ids =
            List.map
              (fun a -> (a.Channel.att_source, a.Channel.att_tag))
              contenders
          in
          match phy.Phy.semantics with
          | Phy.Destructive ->
            (Channel.Clash { contenders = ids; survivor = None }, now + slot)
          | Phy.Arbitration ->
            let best =
              List.fold_left
                (fun acc a ->
                  match acc with
                  | None -> Some a
                  | Some b ->
                    if
                      compare
                        (a.Channel.att_key, a.Channel.att_source)
                        (b.Channel.att_key, b.Channel.att_source)
                      < 0
                    then Some a
                    else acc)
                None contenders
            in
            let a = match best with Some a -> a | None -> assert false in
            let on_wire = Phy.tx_bits phy a.Channel.att_bits in
            ( Channel.Clash
                {
                  contenders = ids;
                  survivor = Some (a.Channel.att_source, a.Channel.att_tag, on_wire);
                },
              now + slot + on_wire ))
      in
      let participants = List.map (fun a -> a.Channel.att_source) attempts in
      (match resolution with
      | Channel.Garbled _ -> slot_faulty := true
      | _ -> ());
      (* Per-source local observations (Harness.misperceived_view). *)
      let observed s =
        if crashed.(s) then Channel.Idle
        else
          match action with
          | Misperceive s' when s' = s && not (List.mem s participants) ->
            Rtnet_mac.Harness.misperceived_view resolution
          | _ -> resolution
      in
      let misperceive_ok =
        match action with
        | Misperceive s ->
          alive s && nd.synced.(s)
          && (not (List.mem s participants))
          && observed s <> resolution
        | _ -> true
      in
      if not misperceive_ok then Disabled
      else begin
        (match action with
        | Misperceive _ -> slot_faulty := true
        | _ -> ());
        (* Completion of the carried frame, if any. *)
        let completion = ref None in
        let take_err = ref None in
        (match resolution with
        | Channel.Idle | Channel.Garbled _
        | Channel.Clash { survivor = None; _ } ->
          ()
        | Channel.Tx { src; tag; _ } | Channel.Clash { survivor = Some (src, tag, _); _ }
          -> (
          let start =
            match resolution with
            | Channel.Clash _ -> now + slot
            | _ -> now
          in
          let on_wire =
            match resolution with
            | Channel.Tx { on_wire; _ }
            | Channel.Clash { survivor = Some (_, _, on_wire); _ } ->
              on_wire
            | _ -> assert false
          in
          match Edf_queue.pop queues.(src) with
          | Some (m, q) when m.Message.uid = tag ->
            queues.(src) <- q;
            completion := Some (m, start, start + on_wire)
          | Some (m, _) ->
            take_err :=
              Some
                (Printf.sprintf
                   "carried tag %d of source %d disagrees with the EDF head \
                    (uid %d)"
                   tag src m.Message.uid)
          | None ->
            take_err :=
              Some
                (Printf.sprintf "source %d transmitted from an empty queue" src)));
        match !take_err with
        | Some reason -> Violating (Model_error { time = now; reason })
        | None -> (
          (* --- the run_trace [after] mirror --- *)
          let replicas = Array.copy nd.replicas in
          let synced = Array.copy nd.synced in
          (* Liveness edges: entering a crash loses sync. *)
          for s = 0 to z - 1 do
            if nd.crashed.(s) = false && crashed.(s) then synced.(s) <- false
          done;
          (* Each live synced replica advances on its own observation. *)
          let proto_err = ref None in
          for s = 0 to z - 1 do
            if alive s && synced.(s) && !proto_err = None then
              match
                Step.observe sys.params ~source:s replicas.(s)
                  ~resolution:(observed s) ~next_free
              with
              | st -> replicas.(s) <- st
              | exception Ddcr.Protocol_violation reason ->
                proto_err := Some reason
          done;
          match !proto_err with
          | Some reason -> Violating (Protocol_error { time = now; reason })
          | None -> (
            (* Divergence detection, by the simulator's own rule:
               replicas disagreeing with the plurality go listen-only
               (ties broken toward the group holding the lowest id). *)
            let member s = alive s && synced.(s) in
            (match Step.plurality ~member replicas with
            | Some r ->
              let consensus = replicas.(r) in
              for s = 0 to z - 1 do
                if member s && not (Step.same_shared replicas.(s) consensus)
                then synced.(s) <- false
              done
            | None -> ());
            (* Desync accounting extends the fault epoch. *)
            let desync_slots = Array.copy nd.desync_slots in
            for s = 0 to z - 1 do
              if alive s && not synced.(s) then begin
                desync_slots.(s) <- desync_slots.(s) + 1;
                slot_faulty := true
              end
            done;
            let resyncs = Array.copy nd.resyncs in
            (* Recovery: cold restart if no synced station remains,
               then boundary resync toward the reference. *)
            let pick_reference () =
              let rec go s =
                if s >= z then None
                else if alive s && synced.(s) then Some s
                else go (s + 1)
              in
              go 0
            in
            (match pick_reference () with
            | Some _ -> ()
            | None -> (
              let rec first_alive s =
                if s >= z then None else if alive s then Some s else first_alive (s + 1)
              in
              match first_alive 0 with
              | None -> ()
              | Some s ->
                replicas.(s) <- { Step.init with Step.reft = next_free };
                synced.(s) <- true;
                resyncs.(s) <- resyncs.(s) + 1));
            (match pick_reference () with
            | Some r when Step.at_boundary replicas.(r) ->
              for s = 0 to z - 1 do
                if alive s && not synced.(s) then begin
                  replicas.(s) <- { (replicas.(r)) with Step.rank = 0 };
                  synced.(s) <- true;
                  resyncs.(s) <- resyncs.(s) + 1
                end
              done
            | Some _ | None -> ());
            (* Epoch note (the harness does this after [after]). *)
            let nd' =
              {
                time = next_free;
                arr = !arr;
                queues;
                replicas;
                synced;
                crashed;
                budget;
                epochs = nd.epochs;
                epoch_open = nd.epoch_open;
                completed =
                  (match !completion with
                  | Some (m, start, finish) ->
                    (m.Message.uid, start, finish) :: nd.completed
                  | None -> nd.completed);
                desync_slots;
                resyncs;
              }
            in
            let nd' =
              if !slot_faulty then note_epoch nd' ~start:now ~finish:next_free
              else nd'
            in
            (* --- invariants --- *)
            let violation = ref None in
            let set v = if !violation = None then violation := Some v in
            (* Slot accounting: every live synced replica structurally
               well-formed. *)
            for s = 0 to z - 1 do
              if alive s && synced.(s) then
                match Step.wf sys.params ~source:s replicas.(s) with
                | Ok () -> ()
                | Error reason ->
                  set (Wf_error { time = next_free; source = s; reason })
            done;
            (* Lockstep among live synced replicas. *)
            (match pick_reference () with
            | None -> ()
            | Some r ->
              for s = 0 to z - 1 do
                if
                  alive s && synced.(s)
                  && not (Step.same_shared replicas.(s) replicas.(r))
                then
                  set
                    (Lockstep_broken
                       {
                         time = next_free;
                         reference = r;
                         source = s;
                         ref_fp = Step.fingerprint replicas.(r);
                         fp = Step.fingerprint replicas.(s);
                       })
              done;
              (* Resync within one tree epoch: no live station may still
                 be desynchronized once the reference reached a
                 boundary (recovery must have fired this very slot). *)
              if Step.at_boundary replicas.(r) then
                for s = 0 to z - 1 do
                  if alive s && not synced.(s) then
                    set (Missed_resync { time = next_free; source = s })
                done);
            (* Timeliness: a completed frame past its deadline must be
               excused by an overlapping fault epoch (TRC-DEADLINE /
               TRC-DEGRADED semantics of Trace_check). *)
            (match !completion with
            | None -> ()
            | Some (m, start, finish) ->
              let dm = Message.abs_deadline m in
              if finish > dm && not (inside_epoch nd' ~t0:start ~dm ~finish)
              then
                set
                  (Deadline_miss
                     {
                       time = now;
                       source = m.Message.cls.Message.cls_source;
                       uid = m.Message.uid;
                       finish;
                       deadline = dm;
                     }));
            match !violation with
            | Some v -> Violating v
            | None -> Stepped nd'))
      end)
  end

(* Canonical state key for dedup: every field that influences any
   future transition or invariant, serialized into one string.  Two
   nodes with equal keys have identical futures, so the explorer keeps
   only the first trail that reaches each key. *)
let key nd =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int nd.time);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int nd.arr);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int nd.budget);
  Array.iteri
    (fun s st ->
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int s);
      Buffer.add_char b (if nd.synced.(s) then 's' else 'd');
      Buffer.add_char b (if nd.crashed.(s) then 'x' else 'a');
      Buffer.add_string b (Step.fingerprint st);
      Buffer.add_char b '#';
      Buffer.add_string b (string_of_int st.Step.rank);
      Buffer.add_char b (if st.Step.last_out then 'o' else '-'))
    nd.replicas;
  Array.iter
    (fun q ->
      Buffer.add_char b '|';
      List.iter
        (fun m ->
          Buffer.add_string b (string_of_int m.Message.uid);
          Buffer.add_char b ',')
        (Edf_queue.to_sorted_list q))
    nd.queues;
  Buffer.add_char b '|';
  List.iter
    (fun (s, e) -> Buffer.add_string b (Printf.sprintf "[%d,%d)" s e))
    nd.epochs;
  (match nd.epoch_open with
  | Some (s, e) -> Buffer.add_string b (Printf.sprintf "o[%d,%d)" s e)
  | None -> ());
  Buffer.contents b
