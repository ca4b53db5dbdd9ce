(** The model's transition relation: one contention slot of the whole
    system as a pure function of (node, fault action).

    A {!node} is a complete system configuration — per-source
    {!Rtnet_core.Ddcr.Step} replica states, EDF queues, sync/liveness
    flags, the remaining fault budget and the fault-epoch ledger.  The
    {!step} function mirrors, piece for piece, what
    {!Rtnet_mac.Harness.run} driving [Ddcr.run_trace] does in one slot:
    deliver arrivals, collect decisions, resolve the channel, compute
    each source's {e local} observation, pop the completed frame,
    advance every live synced replica on its own observation, detect
    divergence by replica plurality, recover (cold restart,
    boundary resync) and extend the fault epoch.  Every deterministic
    piece {e reuses the production code} ([Step.decide]/[Step.observe],
    [Step.plurality]/[Step.same_shared], the channel's arbitration
    rule, [Harness.misperceived_view]); what
    the simulator samples randomly is the explorer's branching choice —
    at most one fault {!action} per slot.

    A node therefore corresponds exactly to one reachable configuration
    of the simulator under some scheduled fault plan, which is what
    lets {!Witness} replay any trail byte-identically. *)

type sys = {
  params : Rtnet_core.Ddcr_params.t;
  inst : Rtnet_workload.Instance.t;
  arrivals : Rtnet_workload.Message.t array;
      (** the full trace, sorted by (arrival, uid) *)
  horizon : int;  (** bit-times; the replay horizon, not the depth bound *)
}

type node = {
  time : int;  (** start of the next contention slot, bit-times *)
  arr : int;  (** [arrivals.(i)] for [i < arr] have been delivered *)
  queues : Rtnet_edf.Edf_queue.t array;
  replicas : Rtnet_core.Ddcr.Step.state array;
  synced : bool array;
  crashed : bool array;
      (** inside a model crash (an explicit [Revive] ends it) *)
  budget : int;  (** remaining fault actions *)
  epochs : (int * int) list;  (** closed fault epochs, most recent first *)
  epoch_open : (int * int) option;  (** the growing current epoch *)
  completed : (int * int * int) list;
      (** [(uid, start, finish)] of every completed frame, most recent
          first *)
  desync_slots : int array;
      (** per source, the slots it spent desynchronized — what the
          harness's [mark_desync] counts *)
  resyncs : int array;
      (** per source, its completed recoveries — what the harness's
          [mark_resync] counts *)
}
(** The last three fields are history: no future transition or
    invariant depends on them, so {!key} leaves them out.  They are
    what {!Rtnet_mac.Harness.run} reports for the same schedule
    (completions, [sf_desync_slots], [sf_resyncs]). *)

type action =
  | No_fault
  | Garble  (** destroy this slot's lone frame on the wire *)
  | Misperceive of int
      (** this live synced listener mis-decodes the slot *)
  | Crash of int  (** source goes down from this slot *)
  | Revive of int  (** source rejoins (listen-only) from this slot *)

type violation =
  | Protocol_error of { time : int; reason : string }
      (** [Step.observe] raised {!Rtnet_core.Ddcr.Protocol_violation} *)
  | Wf_error of { time : int; source : int; reason : string }
      (** a live synced replica failed {!Rtnet_core.Ddcr.Step.wf} —
          the slot-accounting invariant *)
  | Lockstep_broken of {
      time : int;
      reference : int;
      source : int;
      ref_fp : string;
      fp : string;
    }
      (** two live synced replicas disagree {e after} recovery ran —
          the no-two-winners safety root *)
  | Missed_resync of { time : int; source : int }
      (** a live station is still desynchronized although the
          reference reached a tree-epoch boundary this slot *)
  | Deadline_miss of {
      time : int;
      source : int;
      uid : int;
      finish : int;
      deadline : int;
    }
      (** a completed frame finished late with no overlapping fault
          epoch to excuse it (TRC-DEADLINE semantics) *)
  | Model_error of { time : int; reason : string }
      (** the carried tag disagrees with the sender's EDF head — a
          model/simulator divergence, never expected *)

type step_result =
  | Stepped of node
  | Disabled
      (** the action is not applicable here (e.g. [Garble] with no
          lone frame on the wire, [Misperceive] of a source whose view
          would not differ) — the explorer skips the branch *)
  | Violating of violation

val action_label : action -> string
val describe_violation : violation -> string

val make :
  params:Rtnet_core.Ddcr_params.t ->
  inst:Rtnet_workload.Instance.t ->
  trace:Rtnet_workload.Message.t list ->
  horizon:int ->
  sys
(** Validates [params] against the instance and sorts the trace.
    @raise Invalid_argument on an invalid configuration or a nonzero
    [burst_bits] (packet bursting is outside the model). *)

val init : sys -> node
(** The initial configuration: time 0, empty queues, all replicas at
    {!Rtnet_core.Ddcr.Step.init}, everyone live and synced, budget 0
    (the explorer sets it). *)

val step : sys -> node -> action -> step_result
(** One slot under the given fault action. *)

val key : node -> string
(** Canonical dedup key: every field that influences any future
    transition or invariant, serialized into one string.  Two nodes
    with equal keys have identical futures. *)
