module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Phy = Rtnet_channel.Phy
module Sink = Rtnet_telemetry.Sink

exception Protocol_violation of string

(* The pure per-replica transition function.  Every field is immutable:
   [observe] maps (state, feedback) to a fresh state, so the same code
   drives the production simulator, the lockstep-replication property
   tests and the [rtnet.model] explicit-state explorer — which needs
   values it can hash, dedup and stash in a frontier without defensive
   copies.  [observe] is the composition of the shared step
   ([observe_shared], the same for every replica fed the same
   observation) with the private rank rule ([rank_after]); [run_trace]
   calls the two halves separately, so it evaluates the shared step
   once per distinct observation and keeps ranks in an array. *)
module Step = struct
  type tts = {
    t_stack : (int * int) list; (* unsearched time-tree intervals *)
    f_star : int; (* highest searched time leaf, -1 at entry *)
    sent : bool; (* "out": something transmitted this TTs *)
  }

  type sts = {
    s_stack : (int * int) list; (* unsearched static intervals *)
    time_leaf : int; (* the colliding deadline class *)
  }

  type phase = Free | Attempt | Tts of tts | Sts of sts * tts

  type state = {
    phase : phase;
    reft : int;
    rank : int; (* next unused own static index in current STs *)
    last_out : bool; (* [out] flag of the last completed TTs *)
  }

  let init = { phase = Free; reft = 0; rank = 0; last_out = false }

  (* f(reft, I.msg) = max(⌊(DM − (α + reft))/c⌋, f* + 1). *)
  let time_index p st tts msg =
    let natural =
      Rtnet_util.Int_math.fdiv
        (Message.abs_deadline msg - p.Ddcr_params.alpha - st.reft)
        p.Ddcr_params.class_width
    in
    max natural (tts.f_star + 1)

  let attempt_of ~source msg =
    {
      Channel.att_source = source;
      att_tag = msg.Message.uid;
      att_bits = msg.Message.cls.Message.cls_bits;
      att_key = (Message.abs_deadline msg, source);
    }

  let decide_ranked p ~source ~rank st ~msg_star =
    match (st.phase, msg_star) with
    | (Free | Attempt), Some m -> Some (attempt_of ~source m)
    | (Free | Attempt), None -> None
    | Tts tts, Some m -> (
      match tts.t_stack with
      | (lo, w) :: _ ->
        let idx = time_index p st tts m in
        if idx <= p.Ddcr_params.time_leaves - 1 && idx >= lo && idx < lo + w
        then Some (attempt_of ~source m)
        else None
      | [] -> raise (Protocol_violation "decide: empty time-tree stack"))
    | Tts _, None -> None
    | Sts (sts, tts), Some m -> (
      match sts.s_stack with
      | (lo, w) :: _ ->
        let own = p.Ddcr_params.static_indices.(source) in
        if
          rank < Array.length own
          && own.(rank) >= lo
          && own.(rank) < lo + w
          && time_index p st tts m <= sts.time_leaf
        then Some (attempt_of ~source m)
        else None
      | [] -> raise (Protocol_violation "decide: empty static-tree stack"))
    | Sts _, None -> None

  let decide p ~source st ~msg_star =
    decide_ranked p ~source ~rank:st.rank st ~msg_star

  let enter_tts p ~reft st =
    {
      st with
      reft;
      phase =
        Tts
          {
            t_stack = [ (0, p.Ddcr_params.time_leaves) ];
            f_star = -1;
            sent = false;
          };
    }

  let finish_tts_if_done p st tts =
    match tts.t_stack with
    | _ :: _ -> { st with phase = Tts tts }
    | [] ->
      {
        st with
        reft = (if tts.sent then st.reft else st.reft + p.Ddcr_params.theta);
        last_out = tts.sent;
        phase = Attempt;
      }

  let split m (lo, w) =
    let child = w / m in
    List.init m (fun i -> (lo + (i * child), child))

  let pop_time_interval p st tts (lo, w) rest =
    finish_tts_if_done p st { tts with t_stack = rest; f_star = lo + w - 1 }

  let finish_sts_if_done p st sts tts ~next_free =
    match sts.s_stack with
    | _ :: _ -> { st with phase = Sts (sts, tts) }
    | [] -> (
      (* STs completion: reft := local physical time; the colliding
         time leaf is now fully searched. *)
      let st = { st with reft = next_free } in
      match tts.t_stack with
      | leaf :: rest -> pop_time_interval p st tts leaf rest
      | [] -> raise (Protocol_violation "sts completion: no time leaf"))

  (* The shared transition: a pure function of (params, state,
     observation, next_free) that leaves the private [rank] alone, so
     every replica fed the same inputs reaches the same state. *)
  let observe_shared p st ~resolution ~next_free =
    match st.phase with
    | Free -> (
      match resolution with
      (* A garbled frame (channel noise) carries nothing and changes no
         protocol state, in any phase: the sender simply retries its
         current step at the next slot. *)
      | Channel.Idle | Channel.Tx _ | Channel.Garbled _ -> st
      | Channel.Clash _ -> enter_tts p ~reft:next_free st)
    | Attempt -> (
      match resolution with
      | Channel.Idle -> { st with phase = Free }
      | Channel.Garbled _ -> st
      | Channel.Tx _ -> enter_tts p ~reft:st.reft st
      | Channel.Clash _ ->
        (* Resetting reft below the value accumulated by compressed
           time would undo the compression; the max keeps it monotone
           while matching "reft := local physical time" whenever the
           mode is off (reft <= physical time then). *)
        enter_tts p ~reft:(max st.reft next_free) st)
    | Tts tts -> (
      match tts.t_stack with
      | [] -> raise (Protocol_violation "observe: empty time-tree stack")
      | ((lo, w) as top) :: rest -> (
        match resolution with
        | Channel.Idle -> pop_time_interval p st tts top rest
        | Channel.Garbled _ -> st
        | Channel.Tx _ ->
          pop_time_interval p { st with reft = next_free }
            { tts with sent = true } top rest
        | Channel.Clash { survivor; _ } -> (
          match survivor with
          | Some _ ->
            (* Arbitrated medium: the collision slot carried the
               smallest-keyed frame, so re-probe the same interval —
               the remaining contenders re-arbitrate and drain one per
               slot, in absolute-deadline order (CAN-style).  Splitting
               would only add empty probes of emptied leaves. *)
            { st with reft = next_free; phase = Tts { tts with sent = true } }
          | None ->
            if w > 1 then
              {
                st with
                phase =
                  Tts
                    {
                      tts with
                      t_stack = split p.Ddcr_params.time_m top @ rest;
                    };
              }
            else
              {
                st with
                phase =
                  Sts
                    ( {
                        s_stack = [ (0, p.Ddcr_params.static_leaves) ];
                        time_leaf = lo;
                      },
                      tts );
              })))
    | Sts (sts, tts) -> (
      match sts.s_stack with
      | [] -> raise (Protocol_violation "observe: empty static-tree stack")
      | ((_, w) as top) :: rest -> (
        match resolution with
        | Channel.Idle ->
          finish_sts_if_done p st { sts with s_stack = rest } tts ~next_free
        | Channel.Garbled _ -> st
        | Channel.Tx _ ->
          finish_sts_if_done p st { sts with s_stack = rest }
            { tts with sent = true } ~next_free
        | Channel.Clash { survivor; _ } -> (
          match survivor with
          | Some _ ->
            (* Arbitrated medium: carried frame, re-probe in place. *)
            { st with phase = Sts (sts, { tts with sent = true }) }
          | None ->
            if w > 1 then
              {
                st with
                phase =
                  Sts
                    ( {
                        sts with
                        s_stack = split p.Ddcr_params.static_m top @ rest;
                      },
                      tts );
              }
            else
              raise
                (Protocol_violation
                   "collision on a static tree leaf: static indices are not \
                    disjoint"))))

  (* The private rank rule: back to the first own index on entering a
     static tree, one index further on each of the station's own
     static-tree frames (a [Tx] or an arbitrated survivor). *)
  let[@inline] rank_after ~source ~pre ~resolution ~post rank =
    match (pre.phase, post.phase) with
    | Tts _, Sts _ -> 0
    | Sts _, _ -> (
      match resolution with
      | Channel.Tx { src; _ } | Channel.Clash { survivor = Some (src, _, _); _ }
        when src = source ->
        rank + 1
      | Channel.Idle | Channel.Tx _ | Channel.Garbled _ | Channel.Clash _ -> rank)
    | (Free | Attempt | Tts _), _ -> rank

  let observe p ~source st ~resolution ~next_free =
    let post = observe_shared p st ~resolution ~next_free in
    let rank = rank_after ~source ~pre:st ~resolution ~post st.rank in
    if rank = post.rank then post else { post with rank }

  let pp_stack fmt stack =
    List.iter (fun (lo, w) -> Format.fprintf fmt "[%d+%d)" lo w) stack

  let fingerprint st =
    match st.phase with
    | Free -> Printf.sprintf "free reft=%d" st.reft
    | Attempt -> Printf.sprintf "attempt reft=%d" st.reft
    | Tts tts ->
      Format.asprintf "tts reft=%d f*=%d sent=%b %a" st.reft tts.f_star
        tts.sent pp_stack tts.t_stack
    | Sts (sts, tts) ->
      Format.asprintf "sts reft=%d leaf=%d f*=%d sent=%b %a / %a" st.reft
        sts.time_leaf tts.f_star tts.sent pp_stack sts.s_stack pp_stack
        tts.t_stack

  (* Equality on exactly the fields [fingerprint] prints — all but the
     private [rank] and [last_out] — without formatting anything: every
     printed interval is delimited, so two fingerprints are equal iff
     these fields are. *)
  let rec same_stack (a : (int * int) list) b =
    a == b
    ||
    match (a, b) with
    | (lo1, w1) :: r1, (lo2, w2) :: r2 ->
      lo1 = lo2 && w1 = w2 && same_stack r1 r2
    | [], [] -> true
    | _ :: _, [] | [], _ :: _ -> false

  let same_tts a b =
    a == b
    || a.f_star = b.f_star && a.sent = b.sent && same_stack a.t_stack b.t_stack

  let same_shared a b =
    a == b
    || a.reft = b.reft
    &&
    match (a.phase, b.phase) with
    | Free, Free | Attempt, Attempt -> true
    | Tts x, Tts y -> same_tts x y
    | Sts (s1, t1), Sts (s2, t2) ->
      s1.time_leaf = s2.time_leaf
      && same_stack s1.s_stack s2.s_stack
      && same_tts t1 t2
    | (Free | Attempt | Tts _ | Sts _), _ -> false

  (* The consensus rule of divergence detection: among the [member]
     replicas the largest group of [same_shared] states wins, ties going
     to the group holding the lowest id; the result is that group's
     lowest member.  Under consistent observation every member agrees
     with the first, which takes one pass. *)
  let plurality ~member states =
    let n = Array.length states in
    let rec first s = if s >= n || member s then s else first (s + 1) in
    let agrees r s = (not (member s)) || same_shared states.(s) states.(r) in
    let rec all_agree r s = s >= n || (agrees r s && all_agree r (s + 1)) in
    let group_size r =
      let size = ref 0 in
      for s = r to n - 1 do
        if member s && same_shared states.(s) states.(r) then incr size
      done;
      !size
    in
    let f = first 0 in
    if f >= n then None
    else if all_agree f (f + 1) then Some f
    else begin
      (* Scanning upwards with a strict [>], the first member reaching the
         largest size is the lowest member of the lowest-id largest
         group. *)
      let best = ref f and best_size = ref (group_size f) in
      for r = f + 1 to n - 1 do
        if member r then begin
          let size = group_size r in
          if size > !best_size then begin
            best := r;
            best_size := size
          end
        end
      done;
      Some !best
    end

  let phase_name st =
    match st.phase with
    | Free -> "free"
    | Attempt -> "attempt"
    | Tts _ -> "tts"
    | Sts _ -> "sts"

  let at_boundary st =
    match st.phase with Free | Attempt -> true | Tts _ | Sts _ -> false

  (* Structural well-formedness — the slot-accounting obligations the
     model checker asserts on every reached state.  The proofs maintain
     these implicitly; the checker makes them machine-checked. *)
  let check_stack ~what ~leaves stack =
    let rec go expect = function
      | [] -> Ok ()
      | (lo, w) :: rest ->
        if w < 1 then Error (Printf.sprintf "%s: empty interval at %d" what lo)
        else if lo < expect then
          Error
            (Printf.sprintf "%s: interval [%d+%d) overlaps or reorders" what
               lo w)
        else if lo + w > leaves then
          Error
            (Printf.sprintf "%s: interval [%d+%d) exceeds %d leaves" what lo w
               leaves)
        else go (lo + w) rest
    in
    go 0 stack

  let wf p ~source st =
    let ( let* ) = Result.bind in
    let* () = if st.reft < 0 then Error "negative reft" else Ok () in
    let* () =
      let nu = Array.length p.Ddcr_params.static_indices.(source) in
      if st.rank < 0 || st.rank > nu then
        Error (Printf.sprintf "rank %d outside [0, %d]" st.rank nu)
      else Ok ()
    in
    match st.phase with
    | Free | Attempt -> Ok ()
    | Tts tts ->
      let* () =
        check_stack ~what:"time stack" ~leaves:p.Ddcr_params.time_leaves
          tts.t_stack
      in
      (match tts.t_stack with
      | (lo, _) :: _ when tts.f_star <> lo - 1 ->
        Error
          (Printf.sprintf "f* = %d but the top interval starts at %d"
             tts.f_star lo)
      | [] -> Error "empty time stack in phase tts"
      | _ -> Ok ())
    | Sts (sts, tts) ->
      let* () =
        check_stack ~what:"static stack" ~leaves:p.Ddcr_params.static_leaves
          sts.s_stack
      in
      let* () =
        check_stack ~what:"time stack" ~leaves:p.Ddcr_params.time_leaves
          tts.t_stack
      in
      if sts.s_stack = [] then Error "empty static stack in phase sts"
      else if
        sts.time_leaf < 0 || sts.time_leaf >= p.Ddcr_params.time_leaves
      then Error (Printf.sprintf "sts leaf %d out of range" sts.time_leaf)
      else Ok ()
end

let via_of_phase = function
  | Step.Free -> Ddcr_trace.Free_csma
  | Step.Attempt -> Ddcr_trace.Open_attempt
  | Step.Tts _ -> Ddcr_trace.Time_tree
  | Step.Sts _ -> Ddcr_trace.Static_tree

let run_trace ?(check_lockstep = false) ?on_event ?fault ?plan ?analyze
    ?(sink = Sink.null) ?on_complete ?inject params inst trace
    ~horizon =
  (match Ddcr_params.validate params ~num_sources:inst.Instance.num_sources with
  | Ok () -> ()
  | Error e -> invalid_arg ("Ddcr.run_trace: " ^ e));
  let z = inst.Instance.num_sources in
  (* Each source's replica of the shared protocol state.  Stations in
     lockstep hold the same physical value, and their [rank] field is
     not used: each station's private static-tree rank lives in
     [ranks]. *)
  let replicas = Array.make z Step.init in
  let ranks = Array.make z 0 in
  (* The slot's distinct (shared state, observation) pairs, in the
     order first met, and the shared state each one leads to. *)
  let memo_pre = Array.make z Step.init in
  let memo_obs = Array.make z Channel.Idle in
  let memo_post = Array.make z Step.init in
  let plan_active = plan <> None in
  (* [synced.(s)]: s's replica tracks the shared state and s contends.
     Cleared on crash and on divergence detection; a non-synced live
     station is listen-only until it resyncs at a tree-epoch boundary. *)
  let synced = Array.make z true in
  let prev_alive = Array.make z true in
  (* Trace events are built only when someone listens. *)
  let tracing = on_event <> None in
  let emit ev = match on_event with Some f -> f ev | None -> () in
  let telemetry = sink.Sink.enabled in
  (* Open tree-search spans (start bit-time, -1 when closed), for the
     telemetry [search] probe. *)
  let tts_start = ref (-1) in
  let sts_start = ref (-1) in
  let sts_sent = ref false in
  let rec attempts services s acc =
    if s < 0 then acc
    else if services.Rtnet_mac.Harness.alive s && synced.(s) then
      match
        Step.decide_ranked params ~source:s ~rank:ranks.(s) replicas.(s)
          ~msg_star:(services.Rtnet_mac.Harness.peek s)
      with
      | Some a -> attempts services (s - 1) (a :: acc)
      | None -> attempts services (s - 1) acc
    else attempts services (s - 1) acc
  in
  let decide services ~now:_ = attempts services (z - 1) [] in
  (* Packet bursting (Section 5): the acquiring source may append
     further EDF-ranked frames while they fit in the budget. *)
  let do_burst services src start0 =
    let open Rtnet_mac.Harness in
    let rec go start budget =
      (* Section 5: the burst carries "the first k messages (EDF
         ranked) waiting in Q" — the live queue, so arrivals during the
         acquisition participate in the ranking. *)
      services.deliver_until start;
      match services.peek src with
      | Some m
        when budget > 0
             && Phy.tx_bits inst.Instance.phy m.Message.cls.Message.cls_bits
                <= budget -> (
        match services.pop src with
        | Some m ->
          let on_wire, _ =
            Channel.burst services.channel ~src ~tag:m.Message.uid
              ~bits:m.Message.cls.Message.cls_bits
          in
          services.complete m ~start ~finish:(start + on_wire);
          if tracing then
            emit
              (Ddcr_trace.Frame_sent
                 {
                   time = start;
                   finish = start + on_wire;
                   source = src;
                   uid = m.Message.uid;
                   via = Ddcr_trace.Bursting;
                 });
          go (start + on_wire) (budget - on_wire)
        | None -> start)
      | Some _ | None -> start
    in
    go start0 params.Ddcr_params.burst_bits
  in
  (* The reference replica: the lowest-id live, synced station.  It
     stands for "the shared state" in trace events and recovery.
     Without a fault plan it is station 0. *)
  let pick_reference services =
    let rec go s =
      if s >= z then None
      else if services.Rtnet_mac.Harness.alive s && synced.(s) then Some s
      else go (s + 1)
    in
    go 0
  in
  let after services ~now ~resolution ~next_free =
    let alive s = services.Rtnet_mac.Harness.alive s in
    let pre =
      match pick_reference services with
      | Some r -> replicas.(r)
      | None -> replicas.(0)
    in
    let slot = Channel.slot_bits services.Rtnet_mac.Harness.channel in
    (if telemetry then
       match (pre.Step.phase, resolution) with
       | Step.Sts _, (Channel.Tx _ | Channel.Clash { survivor = Some _; _ }) ->
         sts_sent := true
       | _ -> ());
    (* Slot events, classified by the phase the slot was spent in. *)
    (if tracing then
       match resolution with
       | Channel.Idle ->
         emit (Ddcr_trace.Idle_slot { time = now; phase = Step.phase_name pre })
       | Channel.Garbled { on_wire } ->
         emit (Ddcr_trace.Garbled_slot { time = now; on_wire })
       | Channel.Tx { src; tag; on_wire } ->
         emit
           (Ddcr_trace.Frame_sent
              {
                time = now;
                finish = now + on_wire;
                source = src;
                uid = tag;
                via = via_of_phase pre.Step.phase;
              })
       | Channel.Clash { survivor; contenders } -> (
         emit
           (Ddcr_trace.Collision_slot
              {
                time = now;
                phase = Step.phase_name pre;
                contenders = List.length contenders;
              });
         match survivor with
         | Some (src, tag, on_wire) ->
           emit
             (Ddcr_trace.Frame_sent
                {
                  time = now + slot;
                  finish = now + slot + on_wire;
                  source = src;
                  uid = tag;
                  via = via_of_phase pre.Step.phase;
                })
         | None -> ()));
    let next_free =
      match resolution with
      | Channel.Tx { src; on_wire; _ } -> do_burst services src (now + on_wire)
      | Channel.Clash { survivor = Some (src, _, on_wire); _ } ->
        do_burst services src (now + slot + on_wire)
      | Channel.Idle | Channel.Garbled _ | Channel.Clash { survivor = None; _ }
        ->
        next_free
    in
    (* Liveness transitions (only a plan crashes stations): a station
       entering a crash window loses its replica (stale on rejoin); one
       leaving it rejoins listen-only. *)
    if plan_active then
      for s = 0 to z - 1 do
        let alive = alive s in
        (match (prev_alive.(s), alive) with
        | true, false ->
          synced.(s) <- false;
          if tracing then emit (Ddcr_trace.Crash { time = now; source = s })
        | false, true ->
          if tracing then emit (Ddcr_trace.Rejoin { time = now; source = s })
        | _ -> ());
        prev_alive.(s) <- alive
      done;
    (* Each live, synced replica advances on its OWN observation of the
       slot — equal to the wire unless the fault plan made it
       misperceive.  Desynced stations are listen-only: their stale
       replica is not advanced (it is replaced wholesale on resync).
       The shared step is pure, so it is evaluated once per distinct
       (state, observation) pair and every replica that supplied the
       pair gets the same physical result: one evaluation per slot
       under consistent observation, a few under a fault plan.  The
       private rank follows per station. *)
    let distinct = ref 0 in
    for s = 0 to z - 1 do
      if alive s && synced.(s) then begin
        let pre = replicas.(s)
        and obs = services.Rtnet_mac.Harness.observed s in
        let j = ref 0 in
        while
          !j < !distinct && not (memo_pre.(!j) == pre && memo_obs.(!j) == obs)
        do
          incr j
        done;
        if !j = !distinct then begin
          memo_pre.(!j) <- pre;
          memo_obs.(!j) <- obs;
          memo_post.(!j) <-
            Step.observe_shared params pre ~resolution:obs ~next_free;
          incr distinct
        end;
        let post = memo_post.(!j) in
        ranks.(s) <-
          Step.rank_after ~source:s ~pre ~resolution:obs ~post ranks.(s);
        if post != pre then replicas.(s) <- post
      end
    done;
    (* Divergence detection: live synced replicas disagreeing with the
       plurality ("consensus reality", ties broken toward the lowest
       station id) go listen-only.  Under consistent observation every
       replica agrees and this is one pass of structural comparisons. *)
    if plan_active then begin
      let member s = alive s && synced.(s) in
      (match Step.plurality ~member replicas with
      | Some r ->
        let consensus = replicas.(r) in
        for s = 0 to z - 1 do
          if member s && not (Step.same_shared replicas.(s) consensus) then begin
            synced.(s) <- false;
            if tracing then
              emit (Ddcr_trace.Desync { time = next_free; source = s })
          end
        done
      | None -> ());
      (* Degradation accounting: every live station sitting out this
         slot desynchronized extends the fault epoch. *)
      for s = 0 to z - 1 do
        if alive s && not synced.(s) then
          services.Rtnet_mac.Harness.mark_desync s
      done
    end;
    let ref_post = pick_reference services in
    (if tracing || telemetry then
       (* Phase-transition events, derived from the reference replica. *)
       match ref_post with
       | None -> ()
       | Some r -> (
         let post = replicas.(r) in
         let close_tts () =
           let sent = post.Step.last_out in
           if tracing then emit (Ddcr_trace.Tts_end { time = next_free; sent });
           if telemetry then begin
             if !tts_start >= 0 then
               sink.Sink.search ~tree:Sink.Time_tree ~start:!tts_start
                 ~finish:next_free ~sent;
             tts_start := -1;
             (* An unproductive TTs compresses time: reft jumped ahead
                by θ without consuming slots (Section 4.3). *)
             let theta = params.Ddcr_params.theta in
             if (not sent) && theta > 0 then
               sink.Sink.jump ~now:next_free
                 ~reft_from:(post.Step.reft - theta)
                 ~reft_to:post.Step.reft
           end
         in
         let close_sts () =
           if tracing then emit (Ddcr_trace.Sts_end { time = next_free });
           if telemetry then begin
             if !sts_start >= 0 then
               sink.Sink.search ~tree:Sink.Static_tree ~start:!sts_start
                 ~finish:next_free ~sent:!sts_sent;
             sts_start := -1;
             sts_sent := false
           end
         in
         match (pre.Step.phase, post.Step.phase) with
         | (Step.Free | Step.Attempt), Step.Tts _ ->
           if tracing then
             emit
               (Ddcr_trace.Tts_begin { time = next_free; reft = post.Step.reft });
           if telemetry then tts_start := next_free
         | Step.Tts _, Step.Sts (sts, _) ->
           if tracing then
             emit
               (Ddcr_trace.Sts_begin
                  { time = next_free; time_leaf = sts.Step.time_leaf });
           if telemetry then begin
             sts_start := next_free;
             sts_sent := false
           end
         | Step.Sts _, Step.Tts _ -> close_sts ()
         | Step.Sts _, Step.Attempt ->
           close_sts ();
           close_tts ()
         | Step.Tts _, Step.Attempt -> close_tts ()
         | _, _ -> ()));
    (* Recovery.  A listen-only station re-acquires the shared state at
       the next tree-epoch boundary: the reference replica must be in
       free/attempt (no tree-search state to copy mid-flight), and the
       copy resets the private rank.  If no live synced station remains,
       the lowest-id live one cold-starts the shared state and becomes
       the reference. *)
    if plan_active then begin
      (match ref_post with
      | Some _ -> ()
      | None -> (
        let rec first_alive s =
          if s >= z then None else if alive s then Some s else first_alive (s + 1)
        in
        match first_alive 0 with
        | None -> ()
        | Some s ->
          replicas.(s) <- { Step.init with Step.reft = next_free };
          ranks.(s) <- 0;
          synced.(s) <- true;
          services.Rtnet_mac.Harness.mark_resync s;
          if tracing then
            emit (Ddcr_trace.Resync { time = next_free; source = s })));
      match pick_reference services with
      | Some r when Step.at_boundary replicas.(r) ->
        let reference = replicas.(r) in
        for s = 0 to z - 1 do
          if alive s && not synced.(s) then begin
            replicas.(s) <- reference;
            ranks.(s) <- 0;
            synced.(s) <- true;
            services.Rtnet_mac.Harness.mark_resync s;
            if tracing then
              emit (Ddcr_trace.Resync { time = next_free; source = s })
          end
        done
      | Some _ | None -> ()
    end;
    (if check_lockstep then
       match ref_post with
       | None -> ()
       | Some r ->
         let reference = replicas.(r) in
         for s = 0 to z - 1 do
           if
             alive s && synced.(s)
             && not (Step.same_shared replicas.(s) reference)
           then
             raise
               (Protocol_violation
                  (Printf.sprintf "lockstep broken at t=%d: %s vs %s" now
                     (Step.fingerprint reference)
                     (Step.fingerprint replicas.(s))))
         done);
    next_free
  in
  Rtnet_mac.Harness.run ~protocol:"csma-ddcr" ?fault ?plan ?analyze ~sink
    ?on_complete ?inject ~phy:inst.Instance.phy ~num_sources:z ~horizon
    ~decide ~after trace

let run ?check_lockstep ?on_event ?fault ?plan ?analyze ?sink ?on_complete
    ?inject ?(seed = 1) params inst ~horizon =
  run_trace ?check_lockstep ?on_event ?fault ?plan ?analyze ?sink ?on_complete
    ?inject params inst
    (Instance.trace inst ~seed ~horizon)
    ~horizon
