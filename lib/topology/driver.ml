module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Run = Rtnet_stats.Run
module Ddcr = Rtnet_core.Ddcr
module Prng = Rtnet_util.Prng
module Fault_plan = Rtnet_channel.Fault_plan
module Decompose = Rtnet_core.Decompose

type miss = {
  ms_flow : string;
  ms_uid : int;
  ms_t0 : int;
  ms_deadline : int;
  ms_finish : int option;
  ms_hop : string;
  ms_hop_index : int;
  ms_fault : string option;
}

type bridge_drop = {
  bd_bridge : string;
  bd_flow : string;
  bd_uid : int;
  bd_at : int;
  bd_deadline : int;
}

type event =
  | Degraded of {
      dg_bridge : string;
      dg_segment : string;
      dg_from : int;
      dg_until : int;
    }
  | Shed of {
      sh_bridge : string;
      sh_flow : string;
      sh_uid : int;
      sh_at : int;
      sh_criticality : int;
    }
  | Restored of { rs_bridge : string; rs_at : int; rs_backlog : int }

type verdict = {
  v_messages : int;
  v_delivered : int;
  v_met : int;
  v_in_flight : int;
  v_shed : int;
  v_bridge_drops : bridge_drop list;
  v_misses : miss list;
}

type seg_result = {
  sr_segment : string;
  sr_outcome : Run.outcome;
}

type hop_record = {
  hr_index : int;
  hr_segment : string;
  hr_arrival : int;
  hr_start : int;
  hr_finish : int;
  hr_source : int;
}

type chain_record = {
  cr_flow : string;
  cr_uid : int;
  cr_t0 : int;
  cr_deadline : int;
  cr_fault : string option;
  cr_shed : bool;
  cr_dropped : bool;
  cr_hops : hop_record list;
}

type result = {
  r_segments : seg_result list;
  r_outcome : Run.outcome;
  r_metrics : Run.metrics;
  r_verdict : verdict;
  r_events : event list;
  r_chains : chain_record list;
  r_fingerprint : string;
}

(* How many backlogged messages a revived bridge may release per
   [br_latency] interval — the bounded catch-up burst that keeps a
   long-crashed bridge from slamming its whole queue into one
   downstream contention window. *)
let catchup_burst = 4

(* Static per-(segment, class) routing info, derived from the
   elaborated flows once per run. *)
type hop_info = {
  hi_ef : Admit.eflow;  (* the flow this hop belongs to *)
  hi_flow : string;  (* its name *)
  hi_criticality : int;  (* its criticality *)
  hi_idx : int;
  hi_cls : Message.cls;  (* elaborated class on this segment *)
  hi_next : (Topo.bridge * string * Message.cls) option;
}

(* A chain tracks one origin arrival across its hops. *)
type chain = {
  ch_ef : Admit.eflow;
  ch_flow : string;
  ch_criticality : int;
  ch_uid : int;
  ch_t0 : int;
  ch_deadline : int;  (* absolute *)
  mutable ch_done : hop_record list;  (* reverse completion order *)
  mutable ch_fault : string option;
      (* first bridge whose crash window held this chain *)
  mutable ch_shed : bool;  (* shed under degraded-mode operation *)
  mutable ch_dropped : bool;  (* lost to a bridge-queue overflow *)
}

(* A message held in a crashed bridge's store-and-forward queue. *)
type held = {
  hd_key : string * int;  (* chain key *)
  hd_ready : int;  (* finish + br_latency, inside the window *)
  hd_seg : string;  (* downstream segment *)
  hd_cls : Message.cls;  (* forwarded class there *)
  hd_next_idx : int;  (* hop index the release would start *)
}

let rec chunk n = function
  | [] -> []
  | xs ->
    let rec take k acc rest =
      if k = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let batch, rest = take n [] xs in
    batch :: chunk n rest

(* Run the thunks of one wavefront level, at most [domains] at a time.
   Each thunk owns all the mutable state it touches (its queue copy,
   its completion accumulator, its telemetry sink), so spawning them
   on separate domains is safe; everything cross-segment happens in
   the sequential coordinator between levels. *)
let run_batch ~domains thunks =
  if domains <= 1 then List.map (fun f -> f ()) thunks
  else
    List.concat_map
      (fun batch ->
        match batch with
        | [ f ] -> [ f () ]
        | fs -> List.map Domain.join (List.map Domain.spawn fs))
      (chunk domains thunks)

exception Driver_error of string

let run_exn ~domains ?sink_for ~fault_seed (e : Admit.t) ~traces ~horizon =
  let topo = e.Admit.e_topo in
  let seg_names = List.map (fun s -> s.Topo.sg_name) topo.Topo.tp_segments in
  (match Topo.fault_errors topo with
  | [] -> ()
  | errs -> raise (Driver_error (String.concat "; " errs)));
  (* (segment, cls id) -> hop routing info *)
  let hops = Hashtbl.create 16 in
  List.iter
    (fun (f : Admit.eflow) ->
      let rec walk i = function
        | [] -> ()
        | (h : Admit.hop) :: rest ->
          let next =
            match rest with
            | [] -> None
            | nh :: _ ->
              Some
                ( Option.get nh.Admit.h_bridge,
                  nh.Admit.h_segment,
                  nh.Admit.h_cls )
          in
          Hashtbl.replace hops
            (h.Admit.h_segment, h.Admit.h_cls.Message.cls_id)
            {
              hi_ef = f;
              hi_flow = f.Admit.ef_flow.Topo.fl_name;
              hi_criticality = f.Admit.ef_flow.Topo.fl_criticality;
              hi_idx = i;
              hi_cls = h.Admit.h_cls;
              hi_next = next;
            };
          walk (i + 1) rest
      in
      walk 0 f.Admit.ef_hops)
    e.Admit.e_flows;
  (* Open one chain per origin arrival while rewriting the trace's
     origin-class messages to the elaborated hop-0 class (whose
     deadline is the hop budget — EDF ranking and per-hop miss
     accounting are budget-driven). *)
  let chains = Hashtbl.create 64 in
  let chain_keys = ref [] in
  let prepared =
    List.map
      (fun name ->
        let trace =
          try List.assoc name traces
          with Not_found ->
            raise
              (Driver_error
                 (Printf.sprintf "Driver.run: no trace for segment %s" name))
        in
        let trace =
          List.map
            (fun (m : Message.t) ->
              match
                Hashtbl.find_opt hops (name, m.Message.cls.Message.cls_id)
              with
              | Some info when info.hi_idx = 0 ->
                let key = (info.hi_flow, m.Message.uid) in
                Hashtbl.replace chains key
                  {
                    ch_ef = info.hi_ef;
                    ch_flow = info.hi_flow;
                    ch_criticality = info.hi_criticality;
                    ch_uid = m.Message.uid;
                    ch_t0 = m.Message.arrival;
                    ch_deadline =
                      m.Message.arrival + info.hi_ef.Admit.ef_deadline;
                    ch_done = [];
                    ch_fault = None;
                    ch_shed = false;
                    ch_dropped = false;
                  };
                chain_keys := key :: !chain_keys;
                { m with Message.cls = info.hi_cls }
              | Some _ | None -> m)
            trace
        in
        (name, trace))
      seg_names
  in
  let next_uid = Hashtbl.create 8 in
  List.iter
    (fun (name, trace) ->
      let top =
        List.fold_left (fun acc (m : Message.t) -> max acc m.Message.uid) (-1)
          trace
      in
      Hashtbl.replace next_uid name (ref (top + 1)))
    prepared;
  let fresh_uid name =
    let r = Hashtbl.find next_uid name in
    let u = !r in
    incr r;
    u
  in
  let pending = Hashtbl.create 8 in
  let pending_ref name =
    match Hashtbl.find_opt pending name with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace pending name r;
      r
  in
  (* (segment, injected uid) -> chain key *)
  let injected = Hashtbl.create 64 in
  let outcomes = Hashtbl.create 8 in
  let seg_index =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i n -> Hashtbl.replace tbl n i) seg_names;
    fun n -> Hashtbl.find tbl n
  in
  (* Fault machinery.  A crash window of a bridge's station (in the
     downstream segment's plan) takes the bridge's store-and-forward
     queue offline: hand-offs whose ready time falls inside the window
     are held, then drained at revival in NP-EDF order under a bounded
     catch-up burst.  With no fault plans every table below stays
     empty and the hand-off path is bit-identical to the fault-free
     driver. *)
  let plan_of_segment nm =
    match Topo.find_segment topo nm with
    | Some s -> s.Topo.sg_fault
    | None -> None
  in
  (* Each bridge's crash windows before the horizon, by start. *)
  let windows = Hashtbl.create 8 in
  List.iter
    (fun (b : Topo.bridge) ->
      Hashtbl.replace windows b.Topo.br_name
        (match plan_of_segment b.Topo.br_to with
        | None -> []
        | Some sp ->
          List.sort
            (fun (a : Fault_plan.crash_window) b ->
              compare a.Fault_plan.cw_from b.Fault_plan.cw_from)
            (List.filter
               (fun (w : Fault_plan.crash_window) ->
                 w.Fault_plan.cw_from < horizon)
               (Fault_plan.crashes_of sp ~source:b.Topo.br_station))))
    topo.Topo.tp_bridges;
  let bridge_windows (b : Topo.bridge) = Hashtbl.find windows b.Topo.br_name in
  let events = ref [] in
  let emit ev = events := ev :: !events in
  let drops = ref [] in
  let shed_count = ref 0 in
  (* Can the chain still meet its end-to-end deadline if released at
     [at], per a fresh slack-weighted re-decomposition of the remaining
     hops?  (The budget must cover the remaining hop bounds plus the
     remaining bridge delays — [at] already includes this bridge's
     latency.) *)
  let still_feasible chain ~at ~next_idx =
    let remaining =
      List.filteri (fun i _ -> i >= next_idx) chain.ch_ef.Admit.ef_hops
    in
    let bounds = List.map (fun (h : Admit.hop) -> h.Admit.h_bound) remaining in
    let bridge_delays =
      match remaining with
      | [] | [ _ ] -> []
      | _ :: tl ->
        List.map
          (fun (h : Admit.hop) ->
            (Option.get h.Admit.h_bridge).Topo.br_latency)
          tl
    in
    let deadline = chain.ch_deadline - at in
    deadline > 0 && remaining <> []
    && Result.is_ok
         (Decompose.split ~policy:Decompose.Slack_weighted ~deadline
            ~bridge_delays ~bounds)
  in
  (* (bridge name, window start) -> held messages, arrival order *)
  let backlog = Hashtbl.create 8 in
  let backlog_ref k =
    match Hashtbl.find_opt backlog k with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace backlog k r;
      r
  in
  (* Drain one revived bridge queue: EDF order, overflow drops
     (oldest-past-deadline first, then least-urgent), degraded-mode
     shedding of chains whose remaining budget no longer decomposes,
     and a catch-up burst of [catchup_burst] releases per [br_latency]
     for the survivors. *)
  let drain_window (b : Topo.bridge) (w : Fault_plan.crash_window) entries =
    let until = w.Fault_plan.cw_until in
    emit
      (Degraded
         {
           dg_bridge = b.Topo.br_name;
           dg_segment = b.Topo.br_to;
           dg_from = w.Fault_plan.cw_from;
           dg_until = until;
         });
    let chain_of en = Hashtbl.find chains en.hd_key in
    let edf =
      List.sort
        (fun a b ->
          let ca = chain_of a and cb = chain_of b in
          match compare ca.ch_deadline cb.ch_deadline with
          | 0 -> (
            match compare a.hd_ready b.hd_ready with
            | 0 -> compare ca.ch_uid cb.ch_uid
            | c -> c)
          | c -> c)
        entries
    in
    let total = List.length edf in
    (* Overflow: the queue held more than br_capacity messages while
       parked.  Drop the oldest already-hopeless messages first; if
       that is not enough, the least urgent survivors go. *)
    let kept =
      if total <= b.Topo.br_capacity then edf
      else begin
        let overflow = total - b.Topo.br_capacity in
        let past, live =
          List.partition (fun en -> (chain_of en).ch_deadline < until) edf
        in
        let oldest_first =
          List.sort
            (fun a b ->
              match compare a.hd_ready b.hd_ready with
              | 0 -> compare (chain_of a).ch_uid (chain_of b).ch_uid
              | c -> c)
            past
        in
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        let victims = take overflow oldest_first in
        let victims =
          if List.length victims >= overflow then victims
          else
            victims
            @ take
                (overflow - List.length victims)
                (List.rev live (* least urgent = latest deadline *))
        in
        List.iter
          (fun en ->
            let c = chain_of en in
            c.ch_dropped <- true;
            drops :=
              {
                bd_bridge = b.Topo.br_name;
                bd_flow = c.ch_flow;
                bd_uid = c.ch_uid;
                bd_at = until;
                bd_deadline = c.ch_deadline;
              }
              :: !drops)
          victims;
        List.filter (fun en -> not (chain_of en).ch_dropped) edf
      end
    in
    (* Degraded mode: re-decompose each survivor's remaining budget at
       the revival instant; chains that no longer fit are shed,
       lowest criticality first. *)
    let feasible, infeasible =
      List.partition
        (fun en -> still_feasible (chain_of en) ~at:until ~next_idx:en.hd_next_idx)
        kept
    in
    List.iter
      (fun en ->
        let c = chain_of en in
        c.ch_shed <- true;
        incr shed_count)
      infeasible;
    List.iter
      (fun en ->
        let c = chain_of en in
        emit
          (Shed
             {
               sh_bridge = b.Topo.br_name;
               sh_flow = c.ch_flow;
               sh_uid = c.ch_uid;
               sh_at = until;
               sh_criticality = c.ch_criticality;
             }))
      (List.sort
         (fun a b ->
           let ca = chain_of a and cb = chain_of b in
           match compare ca.ch_criticality cb.ch_criticality with
           | 0 -> compare ca.ch_uid cb.ch_uid
           | c -> c)
         infeasible);
    let quantum = max b.Topo.br_latency 1 in
    List.iteri
      (fun rank en ->
        let release = until + (rank / catchup_burst * quantum) in
        let uid = fresh_uid en.hd_seg in
        Hashtbl.replace injected (en.hd_seg, uid) en.hd_key;
        let r = pending_ref en.hd_seg in
        r := { Message.uid; cls = en.hd_cls; arrival = release } :: !r)
      feasible;
    emit
      (Restored { rs_bridge = b.Topo.br_name; rs_at = until; rs_backlog = total })
  in
  let post_process name comps =
    List.iter
      (fun { Run.c_msg = m; c_start = start; c_finish = finish } ->
        let info = Hashtbl.find hops (name, m.Message.cls.Message.cls_id) in
        let key =
          if info.hi_idx = 0 then (info.hi_flow, m.Message.uid)
          else
            try Hashtbl.find injected (name, m.Message.uid)
            with Not_found ->
              raise
                (Driver_error
                   (Printf.sprintf
                      "Driver.run: malformed cross-segment hand-off (segment \
                       %s, class %d, uid %d has no upstream chain)"
                      name m.Message.cls.Message.cls_id m.Message.uid))
        in
        let chain = Hashtbl.find chains key in
        chain.ch_done <-
          {
            hr_index = info.hi_idx;
            hr_segment = name;
            hr_arrival = m.Message.arrival;
            hr_start = start;
            hr_finish = finish;
            hr_source = m.Message.cls.Message.cls_source;
          }
          :: chain.ch_done;
        match info.hi_next with
        | None -> ()
        | Some (bridge, next_seg, next_cls) -> (
          let ready = finish + bridge.Topo.br_latency in
          let outage =
            List.find_opt
              (fun (w : Fault_plan.crash_window) ->
                ready >= w.Fault_plan.cw_from && ready < w.Fault_plan.cw_until)
              (bridge_windows bridge)
          in
          match outage with
          | None ->
            let uid = fresh_uid next_seg in
            let m' = { Message.uid; cls = next_cls; arrival = ready } in
            Hashtbl.replace injected (next_seg, uid) key;
            let r = pending_ref next_seg in
            r := m' :: !r
          | Some w ->
            if chain.ch_fault = None then
              chain.ch_fault <- Some bridge.Topo.br_name;
            let r =
              backlog_ref (bridge.Topo.br_name, w.Fault_plan.cw_from)
            in
            r :=
              {
                hd_key = key;
                hd_ready = ready;
                hd_seg = next_seg;
                hd_cls = next_cls;
                hd_next_idx = info.hi_idx + 1;
              }
              :: !r))
      comps;
    (* Revive this segment's outgoing bridges: all hand-offs a window
       can hold are known once the upstream segment completed (its
       whole horizon ran), so each (bridge, window) drains exactly
       once, in declaration/chronological order. *)
    List.iter
      (fun (b : Topo.bridge) ->
        if b.Topo.br_from = name then
          List.iter
            (fun (w : Fault_plan.crash_window) ->
              let entries =
                match
                  Hashtbl.find_opt backlog (b.Topo.br_name, w.Fault_plan.cw_from)
                with
                | Some r -> List.rev !r
                | None -> []
              in
              drain_window b w entries)
            (bridge_windows b))
      topo.Topo.tp_bridges
  in
  List.iter
    (fun level ->
      let jobs =
        List.map
          (fun name ->
            let inst = Admit.instance_of e name in
            let params = Admit.params_of e name in
            (* Per-segment fault sampler, seeded protocol-blind from
               the run's fault seed and the segment's declaration
               index — the schedule is a property of the (topology,
               seed) pair, never of the protocol under test. *)
            let plan =
              Option.map
                (fun sp ->
                  Fault_plan.create ~horizon
                    ~seed:(Prng.derive fault_seed (seg_index name))
                    sp)
                (plan_of_segment name)
            in
            let trace = List.assoc name prepared in
            let pend0 =
              List.sort Rtnet_mac.Harness.arrival_order !(pending_ref name)
            in
            let flow_ids =
              Hashtbl.fold
                (fun (s, id) _ acc -> if s = name then id :: acc else acc)
                hops []
            in
            let sink =
              Option.map
                (fun f -> f ~index:(seg_index name) ~segment:name)
                sink_for
            in
            let thunk () =
              let pend = ref pend0 in
              let inject ~now =
                let rec take acc = function
                  | (m : Message.t) :: rest when m.Message.arrival <= now ->
                    take (m :: acc) rest
                  | rest ->
                    pend := rest;
                    List.rev acc
                in
                take [] !pend
              in
              let outcome =
                Ddcr.run_trace ?plan ?sink ~inject params inst trace ~horizon
              in
              (* The flow-hop completions, in finish order: the channel
                 carries one frame at a time. *)
              ( outcome,
                List.filter
                  (fun c ->
                    List.mem c.Run.c_msg.Message.cls.Message.cls_id flow_ids)
                  outcome.Run.completions )
            in
            (name, thunk))
          level
      in
      let results = run_batch ~domains (List.map snd jobs) in
      List.iter2
        (fun (name, _) (outcome, comps) ->
          Hashtbl.replace outcomes name outcome;
          post_process name comps)
        jobs results)
    e.Admit.e_levels;
  (* Every chain in deterministic (trace) order, with its hops in path
     order: hop records compare by index first. *)
  let keys = List.rev !chain_keys in
  let finished =
    List.map
      (fun key ->
        let c = Hashtbl.find chains key in
        (c, List.sort compare (List.rev c.ch_done)))
      keys
  in
  (* End-to-end verdict. *)
  let misses = ref [] in
  let delivered = ref 0 and met = ref 0 and in_flight = ref 0 in
  List.iter
    (fun (c, done_) ->
      if c.ch_shed || c.ch_dropped then ()
      else
      let path = c.ch_ef.Admit.ef_hops in
      let total = List.length path in
      let miss ~finish ~hop ~idx =
        (* A held chain's miss is the crashed bridge's fault; otherwise
           a miss on a fault-injected segment is attributed to that
           segment's epochs.  [None] = a genuine (fault-free) overrun. *)
        let fault =
          match c.ch_fault with
          | Some _ as f -> f
          | None -> (
            match Topo.find_segment topo hop with
            | Some { Topo.sg_fault = Some _; _ } -> Some hop
            | Some _ | None -> None)
        in
        misses :=
          {
            ms_flow = c.ch_flow;
            ms_uid = c.ch_uid;
            ms_t0 = c.ch_t0;
            ms_deadline = c.ch_deadline;
            ms_finish = finish;
            ms_hop = hop;
            ms_hop_index = idx;
            ms_fault = fault;
          }
          :: !misses
      in
      if List.length done_ = total then begin
        incr delivered;
        let last = List.nth done_ (total - 1) in
        let finish = last.hr_finish in
        if finish <= c.ch_deadline then incr met
        else begin
          (* By the decomposition invariant a late chain overran some
             hop budget; attribute the miss to the first such hop. *)
          let over =
            List.find_opt
              (fun h ->
                h.hr_finish
                > h.hr_arrival + (List.nth path h.hr_index).Admit.h_budget)
              done_
          in
          let h = Option.value over ~default:last in
          miss ~finish:(Some finish) ~hop:h.hr_segment ~idx:h.hr_index
        end
      end
      else if c.ch_deadline >= horizon then incr in_flight
      else begin
        (* Hops complete strictly in path order, so the first
           un-completed hop is where the chain is stuck. *)
        let idx = List.length done_ in
        miss ~finish:None ~hop:(List.nth path idx).Admit.h_segment ~idx
      end)
    finished;
  (* Per-chain hop records, for causal tracing and postmortem
     artifacts. *)
  let chain_records =
    List.map
      (fun (c, hops) ->
        {
          cr_flow = c.ch_flow;
          cr_uid = c.ch_uid;
          cr_t0 = c.ch_t0;
          cr_deadline = c.ch_deadline;
          cr_fault = c.ch_fault;
          cr_shed = c.ch_shed;
          cr_dropped = c.ch_dropped;
          cr_hops = hops;
        })
      finished
  in
  let seg_outcomes =
    List.map
      (fun n -> { sr_segment = n; sr_outcome = Hashtbl.find outcomes n })
      seg_names
  in
  let merged =
    Run.merge
      ~protocol:(Printf.sprintf "csma-ddcr/%d-seg" (List.length seg_names))
      ~horizon
      (List.map (fun sr -> sr.sr_outcome) seg_outcomes)
  in
  let fingerprint =
    let buf = Buffer.create 1024 in
    List.iter
      (fun sr ->
        Buffer.add_string buf sr.sr_segment;
        Buffer.add_char buf '\n';
        List.iter
          (fun (c : Run.completion) ->
            Buffer.add_string buf
              (Printf.sprintf "%d:%d:%d:%d\n"
                 c.Run.c_msg.Message.cls.Message.cls_id c.Run.c_msg.Message.uid
                 c.Run.c_start c.Run.c_finish))
          sr.sr_outcome.Run.completions)
      seg_outcomes;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  {
    r_segments = seg_outcomes;
    r_outcome = merged;
    r_metrics = Run.metrics merged;
    r_verdict =
      {
        v_messages = List.length keys;
        v_delivered = !delivered;
        v_met = !met;
        v_in_flight = !in_flight;
        v_shed = !shed_count;
        v_bridge_drops = List.rev !drops;
        v_misses = List.rev !misses;
      };
    r_events = List.rev !events;
    r_chains = chain_records;
    r_fingerprint = fingerprint;
  }

(* Structured-error front door: configuration-level failures (missing
   trace, malformed hand-off, a fault plan the sampler rejects) come
   back as [Error msg] for the CLI to print and exit 2 on.  Protocol
   exceptions ([Harness.Mismatch], [Ddcr.Protocol_violation]) still
   propagate — they are run verdicts, not configuration diagnostics,
   and the chaos layer classifies them. *)
let run ?(domains = 1) ?sink_for ?(fault_seed = 0) (e : Admit.t) ~traces
    ~horizon =
  try
    Ok (run_exn ~domains ?sink_for ~fault_seed e ~traces ~horizon)
  with
  | Driver_error msg -> Error msg
  | Invalid_argument msg | Failure msg -> Error msg

let run_seeded ?domains ?sink_for ?fault_seed (e : Admit.t) ~seed ~horizon =
  let traces =
    List.mapi
      (fun i (s : Topo.segment) ->
        ( s.Topo.sg_name,
          Instance.trace s.Topo.sg_instance ~seed:(Prng.derive seed i) ~horizon
        ))
      e.Admit.e_topo.Topo.tp_segments
  in
  (* Unless pinned, the fault streams derive from the same run seed as
     the traces, through a disjoint branch — one seed reproduces the
     whole federation, faults included. *)
  let fault_seed =
    match fault_seed with Some s -> s | None -> Prng.derive seed 0xFA
  in
  run ?domains ?sink_for ~fault_seed e ~traces ~horizon

let pp_verdict fmt v =
  Format.fprintf fmt
    "@[<v>flows: %d messages, %d delivered (%d in time), %d in flight past \
     the horizon, %d missed%s@,"
    v.v_messages v.v_delivered v.v_met v.v_in_flight
    (List.length v.v_misses)
    (if v.v_shed = 0 && v.v_bridge_drops = [] then ""
     else
       Printf.sprintf ", %d shed, %d dropped at bridges" v.v_shed
         (List.length v.v_bridge_drops));
  List.iter
    (fun m ->
      Format.fprintf fmt "  MISS %s uid %d: t0 %d, deadline %d, %s at hop %d (%s)%s@,"
        m.ms_flow m.ms_uid m.ms_t0 m.ms_deadline
        (match m.ms_finish with
        | Some f -> Printf.sprintf "finished %d" f
        | None -> "undelivered")
        m.ms_hop_index m.ms_hop
        (match m.ms_fault with
        | Some f -> Printf.sprintf " [fault: %s]" f
        | None -> ""))
    v.v_misses;
  List.iter
    (fun d ->
      Format.fprintf fmt
        "  DROP %s uid %d: deadline %d, overflowed bridge %s at %d@," d.bd_flow
        d.bd_uid d.bd_deadline d.bd_bridge d.bd_at)
    v.v_bridge_drops;
  Format.fprintf fmt "@]"

let pp_event fmt = function
  | Degraded { dg_bridge; dg_segment; dg_from; dg_until } ->
    Format.fprintf fmt "DEGRADED bridge %s (segment %s) down [%d, %d)"
      dg_bridge dg_segment dg_from dg_until
  | Shed { sh_bridge; sh_flow; sh_uid; sh_at; sh_criticality } ->
    Format.fprintf fmt
      "SHED     %s uid %d (criticality %d) at %d: bridge %s backlog no \
       longer decomposes"
      sh_flow sh_uid sh_criticality sh_at sh_bridge
  | Restored { rs_bridge; rs_at; rs_backlog } ->
    Format.fprintf fmt "RESTORED bridge %s at %d, draining %d held message%s"
      rs_bridge rs_at rs_backlog
      (if rs_backlog = 1 then "" else "s")
