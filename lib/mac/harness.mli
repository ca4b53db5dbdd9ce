(** Common harness for slotted MAC-protocol simulations.

    Every contention protocol in this repository (CSMA/DDCR, CSMA/DCR,
    CSMA-CD/BEB) shares the same skeleton: deliver arrivals into
    per-source EDF queues at each slot boundary, collect the sources'
    transmission attempts, resolve the slot on the {!Rtnet_channel}
    medium, record the carried frame (if any) as a completion, let the
    protocol update its state from the feedback, and repeat until the
    horizon.  This module owns that skeleton — a plain loop from one
    slot boundary to the next — so a protocol only supplies two
    callbacks:

    - [decide]: the attempts for the next contention slot;
    - [after]: protocol-state update from the slot's resolution, with
      the option to extend the acquisition (packet bursting) by
      returning a later [next_free].

    Both reach the slot state through plain functions on {!t}
    ({!peek}, {!pop}, {!complete}, {!alive}, {!observed}, ...).

    Under a {!Rtnet_channel.Fault_plan} the harness additionally owns
    the {e per-source} view of each slot: a crashed source's attempts
    are discarded and it observes nothing; a live listener may
    misperceive the wire ([observed] then differs from the wire
    resolution).  The paper's consistent-observation assumption
    (Section 2.1) is exactly [observed src = resolution] for every
    live [src]; fault plans break it and the harness measures by how
    much (per-source counters, merged fault epochs) in
    {!Rtnet_stats.Run.fault_stats}.

    The channel asserts mutual exclusion as each frame is carried; the
    harness checks every completion against the carried frame (see
    [analyze] on {!run}) and assembles the {!Rtnet_stats.Run} outcome
    (completions, unfinished, dropped, channel statistics).

    {!run} is {!create}, a loop of {!slot} and {!finish} over one
    mutable slot state ({!t}); {!copy} lets a model checker
    ([Rtnet_model]) branch a run and step the very same slot. *)

type mismatch = {
  mm_slot : int;  (** slot start time (bit-times) *)
  mm_source : int;  (** transmitting source *)
  mm_tag : int;  (** tag the channel carried *)
  mm_reason : string;  (** what disagreed *)
}
(** Structured diagnostic for a tag/queue disagreement, so protocol
    bugs under fault injection are debuggable: which slot, which
    source, which tag. *)

exception Mismatch of mismatch
(** Raised when the channel reports a transmission whose tag is not the
    head of the sender's queue — a protocol-implementation error. *)

val mismatch_message : mismatch -> string
(** [mismatch_message m] formats the diagnostic:
    ["slot at t=<slot>: source <src>, tag <tag>: <reason>"].  Also
    installed as the [Printexc] printer for {!Mismatch}. *)

val misperceived_view :
  Rtnet_channel.Channel.resolution -> Rtnet_channel.Channel.resolution
(** [misperceived_view resolution] is what a misperceiving listener
    decodes instead of [resolution]: a [Tx] as CRC-garbage
    ([Garbled]), a destructive [Clash] as silence ([Idle]); [Idle],
    [Garbled] and arbitrated-survivor slots pass through unchanged. *)

val arrival_order :
  Rtnet_workload.Message.t -> Rtnet_workload.Message.t -> int
(** [arrival_order a b] orders messages by arrival time, then by uid —
    the order in which {!run} delivers them. *)

type t
(** A run's state (queues, arrivals, channel, per-source liveness,
    views and fault counters, epoch ledger), updated in place. *)

val create :
  protocol:string ->
  analyze:bool ->
  sink:Rtnet_telemetry.Sink.t ->
  inject:(now:int -> Rtnet_workload.Message.t list) option ->
  phy:Rtnet_channel.Phy.t ->
  num_sources:int ->
  horizon:int ->
  Rtnet_workload.Message.t list ->
  t
(** The state before the slot at time 0; the arguments are {!run}'s. *)

val copy : t -> t
(** An independent state equal to [h] (the sink and [inject] are shared). *)

val slot :
  t ->
  Rtnet_channel.Fault_plan.t option ->
  'p ->
  decide:('p -> now:int -> Rtnet_channel.Channel.attempt list) ->
  after:
    ('p ->
    now:int ->
    resolution:Rtnet_channel.Channel.resolution ->
    next_free:int ->
    int) ->
  unit
(** [slot h faults p ~decide ~after] runs the slot at [now h] for the
    protocol state [p] (steps under {!run}).  Faults enter only through
    [faults], asked for liveness at the slot start, garbling of a lone
    frame ({!Rtnet_channel.Channel.contend}) and misperception by
    each live listener; [None] means all live, observing the wire.
    @raise Mismatch as {!run} does; the state is then undefined. *)

val now : t -> int  (** The start of the next slot. *)

(** A protocol's [decide] and [after] read and write the slot state
    through the functions from {!channel} to {!deviants}.  {!alive} and
    {!observed} answer for the slot that runs and, after it, for the
    slot that ran last. *)

val channel : t -> Rtnet_channel.Channel.t
(** The medium (e.g. for {!Rtnet_channel.Channel.burst}). *)

val peek : t -> int -> Rtnet_workload.Message.t option
(** [peek h src] is the head ([msg*]) of [src]'s EDF queue. *)

val pop : t -> int -> Rtnet_workload.Message.t option
(** [pop h src] removes and returns the head. *)

val complete : t -> Rtnet_workload.Message.t -> start:int -> finish:int -> unit
(** Records a carried frame: the harness itself does so for the slot's
    main frame, and a protocol for its burst frames. *)

val drop : t -> Rtnet_workload.Message.t -> unit
(** Records a message the protocol abandoned (counts as missed). *)

val deliver_until : t -> int -> unit
(** [deliver_until h time] makes arrivals with [T <= time] visible in
    the queues.  The harness already does this at every slot boundary,
    but a protocol extending an acquisition (packet bursting) must call
    it before choosing each continuation frame, so that the EDF ranking
    sees messages that arrived mid-acquisition. *)

val alive : t -> int -> bool
(** [alive h src] is false while [src] is inside a fault-plan crash
    window (always true without a plan). *)

val observed : t -> int -> Rtnet_channel.Channel.resolution
(** [observed h src] is [src]'s {e local} decoding of the slot: equal
    to the wire resolution unless the fault plan made [src]
    misperceive it.  Only meaningful from [after] on; a protocol with
    replicated state must feed each replica its own observation, not
    the wire's. *)

val mark_desync : t -> int -> unit
(** Counts one slot during which [src]'s replica was desynchronized
    (listen-only): feeds {!Rtnet_stats.Run.source_faults} and extends
    the current fault epoch. *)

val mark_resync : t -> int -> unit
(** Counts one completed divergence recovery by [src]. *)

val head_deadlines : t -> int array
(** Per source, the absolute deadline of its queue's head ([msg*]), or
    [max_int] for an empty queue — the array itself, kept equal to the
    queues wherever a head changes (delivery, {!pop}, the slot's own
    take), so a protocol deciding by deadline reads one int per
    station and calls nothing.  Read-only for callers. *)

val head_attempt : t -> int -> Rtnet_channel.Channel.attempt
(** [head_attempt h s] is the attempt that sends [s]'s head: its uid
    as the tag, its length, and the arbitration key (absolute deadline,
    [s]) every protocol here uses.  Built once per head and kept until
    the head changes.
    @raise Invalid_argument if [s]'s queue is empty. *)

val deviants : t -> int list
(** The stations that are down in the current slot or whose local view
    of it differs from the wire's, in no particular order; empty
    without a fault plan.  Valid from [after] on, like {!observed}: a
    protocol with replicated state needs to look at no other station
    apart. *)

val queued : t -> int -> Rtnet_workload.Message.t list  (** Head first. *)

val queued_total : t -> int
(** The number of messages in all queues, kept as they are delivered
    and removed: when it is 0, every entry of {!head_deadlines} is
    [max_int]. *)

val pending : t -> Rtnet_workload.Message.t list
(** The undelivered arrivals, in {!arrival_order}. *)

val completions : t -> Rtnet_stats.Run.completion list
(** Most recent first. *)

val epochs : t -> (int * int) list
(** The fault-epoch ledger so far, in time order (closed, then open). *)

val source_faults : t -> int -> Rtnet_stats.Run.source_faults

val finish : t -> Rtnet_stats.Run.outcome
(** The run's outcome ([faults] is [Some] iff the last slot ran under
    a plan); also sends each merged epoch to the sink.  It polls
    [inject] once more at [horizon - 1], so a message injected after
    the last slot start but before the horizon counts as unfinished. *)

val run :
  protocol:string ->
  ?plan:Rtnet_channel.Fault_plan.t ->
  ?analyze:bool ->
  ?sink:Rtnet_telemetry.Sink.t ->
  ?inject:(now:int -> Rtnet_workload.Message.t list) ->
  phy:Rtnet_channel.Phy.t ->
  num_sources:int ->
  horizon:int ->
  decide:(t -> now:int -> Rtnet_channel.Channel.attempt list) ->
  after:
    (t ->
    now:int ->
    resolution:Rtnet_channel.Channel.resolution ->
    next_free:int ->
    int) ->
  Rtnet_workload.Message.t list ->
  Rtnet_stats.Run.outcome
(** [run ~protocol ~phy ~num_sources ~horizon ~decide ~after trace]
    simulates the protocol on [trace]: {!create}, {!slot} until the
    horizon, {!finish}.  The callbacks get the run's state and keep
    their own.  Per slot, the harness:

    + delivers arrivals with [T <= now] into the EDF queues,
    + under a [plan], refreshes per-source liveness (crash windows),
    + calls [decide], discards attempts of crashed sources, and
      resolves the slot on the channel,
    + under a [plan], computes each live source's local observation
      (misperception draws) and each crashed source's missed slots,
    + on a carried frame ([Tx] or an arbitrated survivor) pops the
      sender's head (verifying the tag — {!Mismatch} otherwise) and
      records the completion,
    + calls [after], whose return value becomes the next slot boundary
      (return [next_free] unchanged unless bursting extended the
      acquisition),
    + if anything was degraded this slot (crash, miss, misperception,
      wire garbling, or the protocol called [mark_desync]), extends
      the current fault epoch to the returned boundary,
    + and starts the next slot at that boundary while it is before
      [horizon] (the slot at time 0 always runs).

    Mutual exclusion is asserted by the channel as each frame is
    carried ({!Rtnet_channel.Channel.contend}): a frame starting
    before the previous one ended fails the run with
    ["MAC safety violated: ..."].

    [plan] is the run's fault model, handed to every {!slot}: every
    garbled frame, misperception and crash comes from it.  The
    outcome's [faults] field is [Some] iff [plan] was given.

    With [analyze] (default [true] — every harness run is
    invariant-checked unless explicitly opted out) every recorded
    completion, main or burst frame, is checked as it is recorded: it
    must equal the frame the channel carried last
    ({!Rtnet_channel.Channel.last_carried}) on (source, uid, start,
    finish), and after every slot the number of completions must equal
    the number of carried frames.  So the completion list equals, in
    order, the frames the wire carried, which the channel keeps from
    overlapping; the check is a few int comparisons per completion and
    allocates nothing.  This is the MAC-layer half of the [rtnet.analysis]
    safety net; the richer protocol-trace obligations (nesting,
    timeliness, ξ bounds) live in [Rtnet_analysis.Trace_check], which
    sits above this library.

    [sink] (default {!Rtnet_telemetry.Sink.null}) receives the
    harness-level probes: [enqueue] on queue insertion, [slot] after
    every channel resolution, [complete]/[drop] on message service,
    and [epoch] for each merged fault epoch at the end of the run.
    With the null sink every probe is a single boolean test.

    [inject] is the federation hook for multi-hop topologies
    ([Rtnet_topology]), which read the forwarded frames from the
    outcome's [completions].  [inject ~now], polled at every slot
    boundary before arrivals are delivered and once more by {!finish}
    at [horizon - 1], returns messages to merge into the arrival
    stream (the injector must return each message exactly once); a
    message whose [arrival <= now] becomes
    visible to the EDF queues this very slot, a later one when its
    arrival time passes — exactly the visibility rule trace arrivals
    follow.  Injected messages are indistinguishable from trace
    arrivals afterwards: they are EDF-queued, completed, counted in
    [unfinished] if still pending, and checked by [analyze].

    @raise Mismatch on tag/queue-head disagreement.
    @raise Failure ["MAC safety violated: ..."] if two carried frames
    overlap, or ["harness analyze: ..."] if a completion disagrees with
    the carried frames. *)
