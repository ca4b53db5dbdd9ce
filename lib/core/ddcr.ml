module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Phy = Rtnet_channel.Phy
module Sink = Rtnet_telemetry.Sink

exception Protocol_violation of string

(* The pure per-replica transition function.  Every field is immutable:
   [observe] maps (state, feedback) to a fresh state, so replicas in
   lockstep share one physical value.  [observe] is the composition of
   the shared step ([observe_shared], the same for every replica fed the
   same observation) with the private rank rule ([rank_after]); [Slot]
   calls the two halves separately, so it evaluates the shared step once
   per distinct observation and keeps ranks in an array.  [decide] is a
   band on the head's deadline ([set_band]), which [Slot] computes once per
   slot for every station. *)

(* A value defined inside a submodule also takes a word of the
   submodule's block, allocated at start-up, so the helpers of [Step]
   and of [Slot]'s replica set live at the top level. *)

let rec push_children lo child i rest =
  if i < 0 then rest
  else push_children lo child (i - 1) ((lo + (i * child), child) :: rest)

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

  (* The decision rule as a band on the head's absolute deadline DM.
     In the paper a source joins a probed time interval [lo, lo+w) iff
     f(reft, msg) = max(⌊(DM − α − reft)/c⌋, f*+1) lies in it and is at
     most F−1, and a static interval iff its next own index lies in it
     and f(reft, msg) is at most the colliding time leaf L.  Since
     ⌊x/c⌋ < k ⟺ x < k·c for c > 0, each is an interval of DM, the same
     for every replica holding the state:
     - TTs, with top = min(lo+w, F): nobody if f*+1 >= top, else
       DM < α + reft + c·top, and DM >= α + reft + c·lo when f*+1 < lo;
     - STs: nobody if f*+1 > L, else DM < α + reft + c·(L+1), and the
       next own static index inside the probed interval;
     - free and attempt: any queued message (DM < max_int). *)
  type band = {
    mutable lo : int; (* lowest DM that transmits *)
    mutable hi : int; (* DM must be below *)
    mutable static : bool; (* the next own index must lie in [s_lo, s_hi) *)
    mutable s_lo : int;
    mutable s_hi : int;
  }

  (* Writes [st]'s band into [b]: ints and bools only, so filling it
     allocates nothing. *)
  let set_band b p st =
    let base = p.Ddcr_params.alpha + st.reft and c = p.Ddcr_params.class_width in
    b.static <- false;
    b.lo <- min_int;
    match st.phase with
    | Free | Attempt -> b.hi <- max_int
    | Tts tts -> (
      match tts.t_stack with
      | (lo, w) :: _ ->
        let next = tts.f_star + 1 and top = min (lo + w) p.Ddcr_params.time_leaves in
        if next >= top then b.hi <- min_int
        else begin
          if next < lo then b.lo <- base + (c * lo);
          b.hi <- base + (c * top)
        end
      | [] -> raise (Protocol_violation "decide: empty time-tree stack"))
    | Sts (sts, tts) -> (
      match sts.s_stack with
      | (lo, w) :: _ ->
        if tts.f_star + 1 > sts.time_leaf then b.hi <- min_int
        else begin
          b.hi <- base + (c * (sts.time_leaf + 1));
          b.static <- true;
          b.s_lo <- lo;
          b.s_hi <- lo + w
        end
      | [] -> raise (Protocol_violation "decide: empty static-tree stack"))

  (* A station transmits iff its head deadline is [in_band] and it
     [joins] the probed static interval; the slot tests the deadline
     first, so a station outside the band costs one load and two
     compares. *)
  let[@inline] in_band b dm = b.lo <= dm && dm < b.hi

  let[@inline] joins p b ~source ~rank =
    (not b.static)
    ||
    let own = p.Ddcr_params.static_indices.(source) in
    rank < Array.length own && own.(rank) >= b.s_lo && own.(rank) < b.s_hi

  let decide p ~source st ~msg_star =
    match msg_star with
    | None -> None
    | Some m ->
      let b = { lo = 0; hi = 0; static = false; s_lo = 0; s_hi = 0 } in
      set_band b p st;
      if in_band b (Message.abs_deadline m) && joins p b ~source ~rank:st.rank
      then
        Some
          {
            Channel.att_source = source;
            att_tag = m.Message.uid;
            att_bits = m.Message.cls.Message.cls_bits;
            att_key = (Message.abs_deadline m, source);
          }
      else None

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

  (* The [m] children of [(lo, w)], in order, pushed onto [rest]. *)
  let split m (lo, w) rest = push_children lo (w / m) (m - 1) rest

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
                      t_stack = split p.Ddcr_params.time_m top rest;
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
                        s_stack = split p.Ddcr_params.static_m top rest;
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

module Harness = Rtnet_mac.Harness

(* What copies of one run share: the parameters, the sink, and
   scratch rewritten by every slot — the step memo (the slot's
   distinct (replica, observation) pairs, in the order first met, and
   their results) and the deadline band. *)
type slot_config = {
  params : Ddcr_params.t;
  sink : Sink.t;
  memo_pre : Step.state array;
  memo_obs : Channel.resolution array;
  memo_post : Step.state array;
  band : Step.band; (* the slot's deadline band, rewritten by [decide] *)
}

type slot = {
  cfg : slot_config;
  h : Harness.t;
  (* The replica of every station that holds [sharing] in [replicas]:
     each of them is live and synced and holds exactly this value, so
     it is stepped once per slot whatever the station count. *)
  mutable shared : Step.state;
  (* The other stations differ and hold their own replica here:
     crashed, desynchronized, misperceiving this slot, or holding a
     physically different state.  None without a fault plan. *)
  replicas : Step.state array;
  mutable differing : int list; (* the stations that differ, ascending *)
  mutable n_differing : int;
  (* Each station's private static-tree rank; the [rank] field of the
     replica states is not used. *)
  ranks : int array;
  (* [synced.(s)]: s's replica tracks the shared state and s contends.
     Cleared on crash and on divergence detection; a non-synced live
     station is listen-only until it resyncs at a tree-epoch
     boundary. *)
  synced : bool array;
  prev_alive : bool array;
}

(* The mark of a station holding the shared replica; never a state. *)
let sharing = { Step.phase = Step.Free; reft = -1; rank = 0; last_out = false }

let differs t s = t.replicas.(s) != sharing

let state_of t s =
  let st = t.replicas.(s) in
  if st == sharing then t.shared else st

(* Every live synced replica holds the shared state (plurality
   desynchronizes the rest), so the deadline band is computed once and
   a station that does not transmit costs one load and two compares.
   A station that crashed this slot may still attempt here: the
   harness discards its attempt. *)
let rec attempts (t : slot) (b : Step.band) heads s acc =
  if s < 0 then acc
  else
    let acc =
      if
        Step.in_band b heads.(s)
        && Step.joins t.cfg.params b ~source:s ~rank:t.ranks.(s)
        && t.synced.(s)
      then Harness.head_attempt t.h s :: acc
      else acc
    in
    attempts t b heads (s - 1) acc

let rec insert s = function
  | d :: rest when d < s -> d :: insert s rest
  | l -> s :: l

(* [s] leaves the shared replica, keeping the state it holds. *)
let diverge t s =
  if not (differs t s) then begin
    t.replicas.(s) <- t.shared;
    t.differing <- insert s t.differing;
    t.n_differing <- t.n_differing + 1
  end

let rec diverge_all t = function
  | [] -> ()
  | s :: rest ->
    diverge t s;
    diverge_all t rest

(* The reference replica: the lowest-id live, synced station, or -1.
   It stands for "the shared state" in trace events and recovery.
   Stations outside the differing set are live and synced, so the scan
   ends at the first of them: without a fault plan, station 0. *)
let rec reference t s =
  if s >= Array.length t.ranks then -1
  else if (not (differs t s)) || (t.synced.(s) && Harness.alive t.h s)
  then s
  else reference t (s + 1)

let rec memo_find t pre obs j distinct =
  if j >= distinct || (t.cfg.memo_pre.(j) == pre && t.cfg.memo_obs.(j) == obs)
  then j
  else memo_find t pre obs (j + 1) distinct

(* Each live, synced differing replica advances on its OWN
   observation of the slot — equal to the wire unless the fault plan
   made it misperceive.  The shared step is pure, so it is evaluated
   once per distinct (state, observation) pair, the shared replica's
   pair first, and every replica that supplied a pair gets the same
   physical result. *)
let rec step_differing t ~next_free distinct = function
  | [] -> ()
  | s :: rest ->
    let distinct =
      if t.synced.(s) && Harness.alive t.h s then begin
        let pre = t.replicas.(s) and obs = Harness.observed t.h s in
        let j = memo_find t pre obs 0 distinct in
        let distinct =
          if j < distinct then distinct
          else begin
            t.cfg.memo_pre.(j) <- pre;
            t.cfg.memo_obs.(j) <- obs;
            t.cfg.memo_post.(j) <-
              Step.observe_shared t.cfg.params pre ~resolution:obs ~next_free;
            distinct + 1
          end
        in
        let post = t.cfg.memo_post.(j) in
        t.ranks.(s) <-
          Step.rank_after ~source:s ~pre ~resolution:obs ~post t.ranks.(s);
        if post != pre then t.replicas.(s) <- post;
        distinct
      end
      else distinct
    in
    step_differing t ~next_free distinct rest

(* Every live synced differing replica agrees with the shared one. *)
let rec all_agree t = function
  | [] -> true
  | s :: rest ->
    ((not (t.synced.(s) && Harness.alive t.h s))
    || Step.same_shared t.replicas.(s) t.shared)
    && all_agree t rest

let resync t ~next_free s st =
  t.replicas.(s) <- st;
  t.ranks.(s) <- 0;
  t.synced.(s) <- true;
  Harness.mark_resync t.h s;
  let sink = t.cfg.sink in
  if sink.Sink.enabled then
    sink.Sink.mark ~time:next_free (Sink.Resync { source = s })

let rec resync_all t ~next_free st = function
  | [] -> ()
  | s :: rest ->
    if Harness.alive t.h s && not t.synced.(s) then
      resync t ~next_free s st;
    resync_all t ~next_free st rest

let lockstep_broken ~now reference st =
  Protocol_violation
    (Printf.sprintf "lockstep broken at t=%d: %s vs %s" now
       (Step.fingerprint reference) (Step.fingerprint st))

let rec check_agree t ~now reference = function
  | [] -> ()
  | s :: rest ->
    if
      t.synced.(s) && Harness.alive t.h s
      && not (Step.same_shared t.replicas.(s) reference)
    then raise (lockstep_broken ~now reference t.replicas.(s));
    check_agree t ~now reference rest

(* Rebuilds only the prefix before the last station that rejoins: a
   slot in which nobody rejoins allocates nothing. *)
let rec rejoin t = function
  | [] -> []
  | s :: rest as l ->
    if
      t.replicas.(s) == t.shared && t.synced.(s) && Harness.alive t.h s
    then begin
      t.replicas.(s) <- sharing;
      t.n_differing <- t.n_differing - 1;
      rejoin t rest
    end
    else
      let rest' = rejoin t rest in
      if rest' == rest then l else s :: rest'

module Slot = struct
  type t = slot

  (* With nothing queued every head is [max_int], outside any band, so
     an idle bus costs nothing per station; the band is still set, so
     its checks still run. *)
  let decide t ~now:_ =
    let b = t.cfg.band in
    Step.set_band b t.cfg.params t.shared;
    if Harness.queued_total t.h = 0 then []
    else attempts t b (Harness.head_deadlines t.h) (Array.length t.ranks - 1) []

  (* Packet bursting (Section 5): the acquiring source may append
     further EDF-ranked frames while they fit in the budget.  The burst
     carries "the first k messages (EDF ranked) waiting in Q" — the live
     queue, so arrivals during the acquisition participate in the
     ranking. *)
  let rec burst t src start budget =
    Harness.deliver_until t.h start;
    if budget <= 0 then start
    else
      match Harness.peek t.h src with
      | Some m
        when Phy.tx_bits (Channel.phy (Harness.channel t.h))
               m.Message.cls.Message.cls_bits
             <= budget -> (
        match Harness.pop t.h src with
        | Some m ->
          let on_wire, _ =
            Channel.burst (Harness.channel t.h) ~src ~tag:m.Message.uid
              ~bits:m.Message.cls.Message.cls_bits
          in
          Harness.complete t.h m ~start ~finish:(start + on_wire);
          burst t src (start + on_wire) (budget - on_wire)
        | None -> start)
      | Some _ | None -> start

  (* Liveness transitions (only a plan crashes stations, and a crashed
     station differs): one entering a crash window loses its replica
     (stale on rejoin); one leaving it rejoins listen-only. *)
  let rec liveness t ~now = function
    | [] -> ()
    | s :: rest ->
      let alive = Harness.alive t.h s in
      let sink = t.cfg.sink in
      (match (t.prev_alive.(s), alive) with
      | true, false ->
        t.synced.(s) <- false;
        if sink.Sink.enabled then
          sink.Sink.mark ~time:now (Sink.Crash { source = s })
      | false, true ->
        if sink.Sink.enabled then
          sink.Sink.mark ~time:now (Sink.Rejoin { source = s })
      | _ -> ());
      t.prev_alive.(s) <- alive;
      liveness t ~now rest

  (* Desynchronized stations are listen-only: their stale replica is
     not advanced (it is replaced wholesale on resync). *)
  let step_replicas t ~resolution ~next_free =
    let distinct =
      if t.n_differing = Array.length t.ranks then 0
      else begin
        let pre = t.shared in
        let post = Step.observe_shared t.cfg.params pre ~resolution ~next_free in
        t.cfg.memo_pre.(0) <- pre;
        t.cfg.memo_obs.(0) <- resolution;
        t.cfg.memo_post.(0) <- post;
        t.shared <- post;
        (* The private rank rule where it acts: entering a static tree
           resets every rank, and an own static-tree frame advances the
           sender's. *)
        (match (pre.Step.phase, post.Step.phase) with
        | Step.Tts _, Step.Sts _ ->
          for s = 0 to Array.length t.ranks - 1 do
            if not (differs t s) then t.ranks.(s) <- 0
          done
        | _ -> (
          match resolution with
          | Channel.Tx { src; _ } | Channel.Clash { survivor = Some (src, _, _); _ }
            when not (differs t src) ->
            t.ranks.(src) <-
              Step.rank_after ~source:src ~pre ~resolution ~post t.ranks.(src)
          | Channel.Idle | Channel.Tx _ | Channel.Garbled _ | Channel.Clash _ ->
            ()));
        1
      end
    in
    step_differing t ~next_free distinct t.differing

  (* Divergence detection: live synced replicas disagreeing with the
     plurality ("consensus reality", ties broken toward the lowest
     station id) go listen-only.  While the shared replica has holders
     and every live synced differing replica agrees with it, that is
     the plurality and nobody disagrees. *)
  let detect_divergence t ~next_free =
    if not (t.n_differing < Array.length t.ranks && all_agree t t.differing)
    then begin
      let states = Array.init (Array.length t.ranks) (state_of t) in
      let member s = t.synced.(s) && Harness.alive t.h s in
      match Step.plurality ~member states with
      | Some r ->
        for s = 0 to Array.length states - 1 do
          if member s && not (Step.same_shared states.(s) states.(r)) then begin
            diverge t s;
            t.synced.(s) <- false;
            let sink = t.cfg.sink in
            if sink.Sink.enabled then
              sink.Sink.mark ~time:next_free (Sink.Desync { source = s })
          end
        done
      | None -> ()
    end

  (* Degradation accounting: every live station sitting out this slot
     desynchronized extends the fault epoch. *)
  let rec count_desync t = function
    | [] -> ()
    | s :: rest ->
      if Harness.alive t.h s && not t.synced.(s) then
        Harness.mark_desync t.h s;
      count_desync t rest

  (* Recovery.  A listen-only station re-acquires the shared state at
     the next tree-epoch boundary: the reference replica must be in
     free/attempt (no tree-search state to copy mid-flight), and the
     copy resets the private rank.  If no live synced station remains,
     the lowest-id live one cold-starts the shared state and becomes
     the reference.  Only differing stations are listen-only. *)
  let recover t ~next_free ~ref_post =
    (if ref_post < 0 then
       let rec first_alive s =
         if s >= Array.length t.ranks then -1
         else if Harness.alive t.h s then s
         else first_alive (s + 1)
       in
       let s = first_alive 0 in
       if s >= 0 then
         resync t ~next_free s { Step.init with Step.reft = next_free });
    let r = reference t 0 in
    if r >= 0 && Step.at_boundary (state_of t r) then
      resync_all t ~next_free (state_of t r) t.differing

  (* Stations holding the shared value again, live and synced, rejoin
     it; if no station holds it, the reference's replica becomes it. *)
  let normalize t =
    if t.n_differing > 0 then begin
      (if t.n_differing = Array.length t.ranks then
         let r = reference t 0 in
         if r >= 0 then t.shared <- t.replicas.(r));
      t.differing <- rejoin t t.differing
    end

  (* The tree-search brackets, from the reference replica's phase
     before and after the slot; an unproductive TTs compresses time:
     reft jumped ahead by θ without consuming slots (Section 4.3). *)
  let search_marks t ~next_free pre post =
    let sink = t.cfg.sink in
    let tts_end () =
      let sent = post.Step.last_out and reft = post.Step.reft in
      let theta = t.cfg.params.Ddcr_params.theta in
      sink.Sink.mark ~time:next_free (Sink.Tts_end { sent });
      if (not sent) && theta > 0 then
        sink.Sink.mark ~time:next_free
          (Sink.Jump { reft_from = reft - theta; reft_to = reft })
    in
    match (pre.Step.phase, post.Step.phase) with
    | (Step.Free | Step.Attempt), Step.Tts _ ->
      sink.Sink.mark ~time:next_free (Sink.Tts_begin { reft = post.Step.reft })
    | Step.Tts _, Step.Sts (sts, _) ->
      sink.Sink.mark ~time:next_free
        (Sink.Sts_begin { time_leaf = sts.Step.time_leaf })
    | Step.Sts _, Step.Tts _ -> sink.Sink.mark ~time:next_free Sink.Sts_end
    | Step.Sts _, Step.Attempt ->
      sink.Sink.mark ~time:next_free Sink.Sts_end;
      tts_end ()
    | Step.Tts _, Step.Attempt -> tts_end ()
    | _, _ -> ()

  let after t ~now ~resolution ~next_free =
    (* This slot's crashed and misperceiving stations leave the shared
       replica with the state they held entering it. *)
    diverge_all t (Harness.deviants t.h);
    let r_pre = reference t 0 in
    let pre = state_of t (if r_pre >= 0 then r_pre else 0) in
    let sink = t.cfg.sink in
    (* The phase the slot was spent in, after its frame's [complete]
       and before any burst frame's. *)
    (if sink.Sink.enabled then
       sink.Sink.mark ~time:now
         (match pre.Step.phase with
         | Step.Free -> Sink.Free
         | Step.Attempt -> Sink.Attempt
         | Step.Tts _ -> Sink.Tts
         | Step.Sts _ -> Sink.Sts));
    let budget = t.cfg.params.Ddcr_params.burst_bits in
    let next_free =
      match resolution with
      | Channel.Tx { src; on_wire; _ } -> burst t src (now + on_wire) budget
      | Channel.Clash { survivor = Some (src, _, on_wire); _ } ->
        let slot_bits = Channel.slot_bits (Harness.channel t.h) in
        burst t src (now + slot_bits + on_wire) budget
      | Channel.Idle | Channel.Garbled _ | Channel.Clash { survivor = None; _ }
        ->
        next_free
    in
    liveness t ~now t.differing;
    step_replicas t ~resolution ~next_free;
    detect_divergence t ~next_free;
    count_desync t t.differing;
    let ref_post = reference t 0 in
    if sink.Sink.enabled && ref_post >= 0 then
      search_marks t ~next_free pre (state_of t ref_post);
    recover t ~next_free ~ref_post;
    (* Lockstep (Sections 2.1 and 3.2), asserted in every slot: each
       live synced replica holds the reference's state — one comparison
       for the shared replica and one per differing station.  When no
       station differs, every one holds the shared replica itself, so
       it holds by construction and nothing is compared. *)
    if t.n_differing > 0 && ref_post >= 0 then begin
      let reference = state_of t ref_post in
      if
        t.n_differing < Array.length t.ranks
        && not (Step.same_shared t.shared reference)
      then raise (lockstep_broken ~now reference t.shared);
      check_agree t ~now reference t.differing
    end;
    normalize t;
    next_free

  let make ~analyze ~sink ~inject params inst trace ~horizon =
    let z = inst.Instance.num_sources in
    let h =
      Harness.create ~protocol:"csma-ddcr" ~analyze ~sink ~inject
        ~phy:inst.Instance.phy ~num_sources:z ~horizon trace
    in
    {
      cfg =
        {
          params;
          sink;
          memo_pre = Array.make (z + 1) Step.init;
          memo_obs = Array.make (z + 1) Channel.Idle;
          memo_post = Array.make (z + 1) Step.init;
          band = { Step.lo = 0; hi = 0; static = false; s_lo = 0; s_hi = 0 };
        };
      h;
      shared = Step.init;
      replicas = Array.make z sharing;
      differing = [];
      n_differing = 0;
      ranks = Array.make z 0;
      synced = Array.make z true;
      prev_alive = Array.make z true;
    }

  let create params inst trace ~horizon =
    make ~analyze:true ~sink:Sink.null ~inject:None params inst trace ~horizon

  let copy t =
    {
      t with
      h = Harness.copy t.h;
      replicas = Array.copy t.replicas;
      ranks = Array.copy t.ranks;
      synced = Array.copy t.synced;
      prev_alive = Array.copy t.prev_alive;
    }

  let step t faults = Harness.slot t.h faults t ~decide ~after
  let harness t = t.h
  let now t = Harness.now t.h
  let alive t s = Harness.alive t.h s
  let synced t s = t.synced.(s)
  let replica t s = { (state_of t s) with Step.rank = t.ranks.(s) }
end

let run_trace ?plan ?(analyze = true) ?(sink = Sink.null) ?inject params inst
    trace ~horizon =
  (match Ddcr_params.validate params ~num_sources:inst.Instance.num_sources with
  | Ok () -> ()
  | Error e -> invalid_arg ("Ddcr.run_trace: " ^ e));
  let t = Slot.make ~analyze ~sink ~inject params inst trace ~horizon in
  let rec loop () =
    Slot.step t plan;
    if Slot.now t < horizon then loop ()
  in
  loop ();
  Harness.finish t.h

let run ?plan ?analyze ?sink ?inject ?(seed = 1) params inst ~horizon =
  run_trace ?plan ?analyze ?sink ?inject params inst
    (Instance.trace inst ~seed ~horizon)
    ~horizon
