(** The model's transition relation: one contention slot of the whole
    system, run by the simulator itself.  {!step} checks the action's
    budget and liveness preconditions, copies the parent's state
    ({!Rtnet_core.Ddcr.Slot.t}) and runs {!Rtnet_core.Ddcr.Slot.step}
    on the copy under the action as a one-slot
    {!Rtnet_channel.Fault_plan} of scheduled atoms ([garble_at
    \[now\]], [misperceive_at \[(s, now)\]], a [\[now, now+1)] crash
    window per source down).  It then maps the slot's exceptions to
    violations and checks the invariants.  A node is therefore a state
    of the simulator under some scheduled fault plan, which is what
    lets {!Witness} replay any trail byte-identically. *)

type sys = {
  params : Rtnet_core.Ddcr_params.t;
  inst : Rtnet_workload.Instance.t;
  trace : Rtnet_workload.Message.t list;  (** the full arrival trace *)
  horizon : int;  (** bit-times; the replay horizon, not the depth bound *)
}

type node = {
  budget : int;  (** remaining fault actions *)
  slot : Rtnet_core.Ddcr.Slot.t;
      (** the simulator's state; {!step} steps a copy of it.  Its
          {!Rtnet_core.Ddcr.Slot.now} is the start of the next
          contention slot. *)
}

type action =
  | No_fault
  | Garble  (** destroy this slot's lone frame on the wire *)
  | Misperceive of int
      (** this live synced listener mis-decodes the slot *)
  | Crash of int  (** source goes down from this slot *)
  | Revive of int  (** source rejoins (listen-only) from this slot *)

type violation =
  | Protocol_error of { time : int; reason : string }
      (** the slot raised {!Rtnet_core.Ddcr.Protocol_violation}: among
          others, two live synced replicas disagree after recovery ran
          (the slot asserts lockstep, the no-two-winners safety root) *)
  | Wf_error of { time : int; source : int; reason : string }
      (** a live synced replica failed {!Rtnet_core.Ddcr.Step.wf} —
          the slot-accounting invariant *)
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
          epoch to excuse it (the TRC-DEGRADED rule) *)
  | Model_error of { time : int; reason : string }
      (** the slot raised {!Rtnet_mac.Harness.Mismatch}: the carried tag
          disagrees with the sender's EDF head, never expected *)

type step_result =
  | Stepped of node
  | Disabled
      (** the action's precondition fails, or the slot shows it had no
          effect ([Garble] with no lone frame, [Misperceive] of an
          unchanged view) — the explorer skips the branch *)
  | Violating of violation

val action_label : action -> string
val describe_violation : violation -> string

val make :
  params:Rtnet_core.Ddcr_params.t ->
  inst:Rtnet_workload.Instance.t ->
  trace:Rtnet_workload.Message.t list ->
  horizon:int ->
  sys
(** Validates [params] against the instance.
    @raise Invalid_argument on an invalid configuration or a nonzero
    [burst_bits] (packet bursting is outside the model). *)

val init : sys -> node
(** {!Rtnet_core.Ddcr.Slot.create}'s state at time 0 (empty queues,
    everyone live and synced), budget 0 (the explorer sets it). *)

val step : sys -> node -> action -> step_result
(** One slot under the given fault action.  Every action but
    [No_fault] and [Revive] spends budget; [Misperceive s] needs [s]
    live and synced, [Crash s] [s] live, [Revive s] [s] crashed. *)

val key : sys -> node -> string
(** Canonical dedup key: every field that influences any future
    transition or invariant, serialized into one string.  Two nodes
    with equal keys have identical futures. *)
