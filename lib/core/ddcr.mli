(** The CSMA/DDCR protocol — Carrier Sense Multi Access / Deadline
    Driven Collision Resolution (Section 3.2).

    Every source runs the same deterministic automaton and keeps a
    replica of the shared protocol state (current phase, reference time
    [reft], tree-search stacks, highest searched leaf [f*]) updated
    {b only from channel feedback}, plus its private EDF queue.  The
    interpretation choices for the paper's informal description are
    listed in DESIGN.md §4.

    Phases:
    - {b free CSMA-CD}: no unresolved collision pending; any source
      with a non-empty queue attempts its [msg*]; the first collision
      starts CSMA/DDCR;
    - {b time tree search} ({i TTs}): a balanced [time_m]-ary search
      over the [F] deadline-class leaves; a source participates in the
      probed interval iff
      [f(reft, msg★) = max(⌊(DM − α − reft)/c⌋, f★ + 1)]
      falls inside it (and is [<= F − 1]);
    - {b static tree search} ({i STs}): entered on a time-tree leaf
      collision; sources walk their statically owned indices, at most
      [ν_i] transmissions each, with unsearched-index joins for late
      messages;
    - {b open attempt}: after each TTs, one à-la-CSMA-CD attempt slot;
      its collision resets [reft] and starts the next TTs; silence
      returns the channel to free CSMA-CD.  A TTs that transmitted
      nothing first advances [reft] by [θ(c)] (compressed time).

    Between faults every source holds the same shared state, so the
    simulator ({!Slot}) keeps it once: one replica for all the stations
    that agree, stepped once per slot, and a band on the head's
    absolute deadline, computed once per slot, for the decisions.
    Without a fault plan a slot costs in proportion to the stations
    that transmit (DESIGN.md §4.1). *)

exception Protocol_violation of string
(** Raised if the channel feedback is inconsistent with the protocol's
    invariants (e.g. a collision on a static tree leaf, which disjoint
    index ownership makes impossible). *)

(** The per-source protocol automaton as a pure transition function:
    the whole DDCR step as a [state -> feedback -> state] map over
    immutable records.  {!Step.observe} is the composition of a shared
    half, identical for every replica fed the same observation, and the
    private static-tree rank rule; {!Slot} evaluates the shared half
    once per distinct observation, keeps one rank per source, and
    decides for every station with one deadline band per slot.
    The explicit-state model checker ([Rtnet_model]) explores whole
    states directly — they are hashable, comparable and structurally
    shared, so a frontier of reached states needs no defensive
    copies. *)
module Step : sig
  type tts = {
    t_stack : (int * int) list;
        (** unsearched time-tree intervals, ascending [(lo, width)] *)
    f_star : int;  (** highest searched time leaf, [-1] at entry *)
    sent : bool;  (** "out": something transmitted this TTs *)
  }

  type sts = {
    s_stack : (int * int) list;  (** unsearched static intervals *)
    time_leaf : int;  (** the colliding deadline class *)
  }

  type phase = Free | Attempt | Tts of tts | Sts of sts * tts

  type state = {
    phase : phase;
    reft : int;  (** reference time *)
    rank : int;  (** next unused own static index in current STs *)
    last_out : bool;  (** [out] flag of the last completed TTs *)
  }

  val init : state
  (** The initial (free CSMA-CD, [reft = 0]) state. *)

  val decide :
    Ddcr_params.t ->
    source:int ->
    state ->
    msg_star:Rtnet_workload.Message.t option ->
    Rtnet_channel.Channel.attempt option
  (** [decide p ~source st ~msg_star] is the source's action for the
      next contention slot, given the head of its local EDF queue:
      [Some attempt] to transmit, [None] to stay silent.  The rule is a
      band on the head's absolute deadline [DM], computed from [st]
      alone (with [base = α + reft], top interval [(lo, w)], [F] time
      leaves, and [f(reft, msg) = max(⌊(DM − base)/c⌋, f* + 1)]):
      - free or attempt phase: any message;
      - TTs: nobody if [f* + 1 >= min(lo + w, F)]; otherwise
        [DM < base + c·min(lo + w, F)], and also [DM >= base + c·lo]
        when [f* + 1 < lo] — exactly "[f] lies in [\[lo, lo + w)] and
        is at most [F − 1]";
      - STs at time leaf [L]: [f* + 1 <= L], [DM < base + c·(L + 1)],
        and the source's next own static index (at [st.rank]) inside
        the probed static interval.
      The simulator ({!Slot}) applies the same band to every station
      with one computation per slot; this function is its per-replica
      reference.  The attempt's key is [(DM, source)]. *)

  val observe :
    Ddcr_params.t ->
    source:int ->
    state ->
    resolution:Rtnet_channel.Channel.resolution ->
    next_free:int ->
    state
  (** [observe p ~source st ~resolution ~next_free] is the state after
      the slot's channel feedback; [next_free] is the start of the next
      contention slot ("local physical time" at which the next decision
      is taken).  It is the composition of a shared step, a pure
      function of ([p], [st], [resolution], [next_free]) that every
      replica fed the same state and observation agrees on, with the
      private rank rule: [rank] goes to 0 on entering a static tree and
      up by one on each of [source]'s own static-tree frames.  [source]
      is needed only for that rank.
      @raise Protocol_violation on inconsistent feedback. *)

  val fingerprint : state -> string
  (** Printable digest of the {b shared} state (phase, stacks, [reft],
      [f*]); private state ([rank], [last_out]) is excluded.  Used for
      failure messages and state keys; comparisons use
      {!same_shared}. *)

  val same_shared : state -> state -> bool
  (** [same_shared a b] iff [a] and [b] agree on the shared state —
      exactly the fields {!fingerprint} prints, so it holds iff
      [fingerprint a = fingerprint b] — without building a string.
      Replicas in lockstep are [same_shared] after every slot.
      Physically equal states answer at once, without a field
      compared. *)

  val plurality : member:(int -> bool) -> state array -> int option
  (** [plurality ~member states] is the consensus replica of divergence
      detection: among the indices [s] with [member s], the largest
      group of {!same_shared} states wins, ties going to the group that
      holds the lowest index, and the result is that group's lowest
      index ([None] if no index is a member).  When every member agrees
      with the first one it costs a single pass. *)

  val phase_name : state -> string
  (** ["free"], ["attempt"], ["tts"] or ["sts"]. *)

  val at_boundary : state -> bool
  (** Between tree epochs (phase free or attempt) — the only states a
      recovering replica may copy. *)

  val wf : Ddcr_params.t -> source:int -> state -> (unit, string) result
  (** [wf p ~source st] checks structural well-formedness — the
      slot-accounting obligations the model checker asserts on every
      reached state: stack intervals non-empty, in bounds, ascending
      and disjoint; [f* + 1] equal to the top time interval's start;
      [reft >= 0]; [0 <= rank <= ν(source)]; a non-empty stack in each
      in-search phase and the STs leaf in range. *)
end

(** The whole simulated system as one mutable, copyable state — the
    harness's ({!Rtnet_mac.Harness.t}) plus every station's replica,
    private rank, sync flag and previous liveness — and the slot that
    steps it in place.  {!run_trace} is a state, a loop of
    {!Slot.step} and {!Rtnet_mac.Harness.finish}; the model checker
    ([Rtnet_model]) runs the same {!Slot.step} on copies.

    The stations whose replica is the reference's share one replica,
    stepped once per slot; only the stations that differ (crashed,
    desynchronized, misperceiving this slot, or holding a physically
    different state) keep their own, stepped one by one.  Without a
    fault plan none differs.  Decisions read each station's head
    deadline ({!Rtnet_mac.Harness.head_deadlines}) against the deadline
    band of {!Step.decide}, computed once per slot. *)
module Slot : sig
  type t

  val create :
    Ddcr_params.t ->
    Rtnet_workload.Instance.t ->
    Rtnet_workload.Message.t list ->
    horizon:int ->
    t
  (** The state before the slot at time 0 of {!run_trace} with default
      options; [params] must be valid for [inst]. *)

  val copy : t -> t

  val step : t -> Rtnet_channel.Fault_plan.t option -> unit
  (** One slot of {!run_trace} under [faults] (see
      {!Rtnet_mac.Harness.slot}); with [Some _] DDCR's fault handling
      runs too.  Lockstep is asserted as in {!run_trace}.
      @raise Protocol_violation on inconsistent channel feedback or a
      broken lockstep, and {!Rtnet_mac.Harness.Mismatch}. *)

  val harness : t -> Rtnet_mac.Harness.t
  val now : t -> int
  val synced : t -> int -> bool

  val alive : t -> int -> bool
  (** Live in the last slot. *)

  val replica : t -> int -> Step.state
  (** [s]'s replica with its private rank in [rank] (stale while [s]
      is crashed or desynchronized) — the shared replica for a station
      that does not differ, its own otherwise. *)
end

val run_trace :
  ?plan:Rtnet_channel.Fault_plan.t ->
  ?analyze:bool ->
  ?sink:Rtnet_telemetry.Sink.t ->
  ?inject:(now:int -> Rtnet_workload.Message.t list) ->
  Ddcr_params.t ->
  Rtnet_workload.Instance.t ->
  Rtnet_workload.Message.t list ->
  horizon:int ->
  Rtnet_stats.Run.outcome
(** [run_trace params inst trace ~horizon] simulates CSMA/DDCR for the
    given arrival trace on [inst]'s medium until [horizon] (bit-times)
    and reports the outcome (completions carry exact start/finish
    times; the channel's occupancy statistics are embedded).
    Every slot asserts lockstep, the property the paper's safety
    argument rests on (Sections 2.1 and 3.2): after recovery, every
    live synced replica agrees with the reference's.  When no station
    differs they all hold one physical replica and nothing is
    compared; otherwise it costs one comparison for the stations
    sharing the reference's replica and one per differing station.
    [analyze] is the harness's (default [true]):
    every completion is checked against the frame the channel
    carried.

    [plan] runs the protocol under a {!Rtnet_channel.Fault_plan}:

    - a garbled frame is retried deterministically: the protocol
      remains safe, at the cost of latency;
    - a crashed source neither decides nor observes; on rejoin it is
      {e desynchronized} and stays listen-only;
    - every live synced replica is fed its own local observation
      ([Harness.observed]), so per-source misperception can make
      replicas diverge.  The shared half of {!Step.observe} is
      evaluated once for the stations that share the reference's
      replica and once per further distinct (replica state,
      observation) pair of the differing stations, and every replica
      that supplied a pair gets the same physical state — one
      evaluation per slot under consistent observation.  Each
      station's private rank is kept apart;
    - divergence is detected the slot it occurs by comparing replica
      states structurally ({!Step.same_shared}); sources disagreeing
      with the plurality ({!Step.plurality}: ties broken towards the
      lowest id) are desynchronized and go listen-only;
    - a desynchronized source recovers at the first tree-epoch boundary
      (the plurality replica in phase free/attempt): it copies the
      reference replica state, with its private rank reset, and
      re-enters contention — within one tree epoch of the fault
      clearing.  If {e no} synced source
      remains, the lowest-id live source cold-restarts the protocol and
      the others resync to it;
    - lockstep is asserted among the live synced replicas only (the
      property fault plans preserve).

    The outcome's [faults] statistics are [Some] iff [plan] was given.

    [sink] (default {!Rtnet_telemetry.Sink.null}) receives, on top of
    the harness probes, DDCR's facts as {!Rtnet_telemetry.Sink.mark}s,
    each emitted once: the phase every slot was spent in (taken from
    the reference replica before the slot), the TTs/STs brackets and
    the compressed-time θ jumps (from its phase after the slot), and
    each station's crash, rejoin, desync and resync.
    {!Ddcr_trace.collector} rebuilds the protocol trace from them.

    [inject] is the harness's (see {!Rtnet_mac.Harness.run}) — the
    federation hook a multi-hop topology driver uses to inject bridged
    arrivals from upstream segments; it reads what this segment
    forwards from the outcome's completions.
    @raise Invalid_argument if [params] fail validation for [inst].
    @raise Protocol_violation on inconsistent channel feedback or a
    broken lockstep. *)

val run :
  ?plan:Rtnet_channel.Fault_plan.t ->
  ?analyze:bool ->
  ?sink:Rtnet_telemetry.Sink.t ->
  ?inject:(now:int -> Rtnet_workload.Message.t list) ->
  ?seed:int ->
  Ddcr_params.t ->
  Rtnet_workload.Instance.t ->
  horizon:int ->
  Rtnet_stats.Run.outcome
(** [run params inst ~horizon] is {!run_trace} on
    [Instance.trace inst ~seed ~horizon] (default seed 1). *)
