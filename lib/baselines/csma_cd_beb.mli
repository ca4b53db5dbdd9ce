(** CSMA-CD with truncated binary exponential backoff — the standard
    Ethernet MAC (IEEE 802.3) that CSMA/DDCR replaces.

    Each source services its queue in EDF order (so the comparison with
    CSMA/DDCR isolates the {i collision resolution} policy), attempts
    when the channel is free, and on the [n]-th consecutive collision
    of a frame waits a uniform number of slots in
    [\[0, 2^min(n,10) − 1]]; after 16 attempts the frame is dropped.
    The randomness makes transmission latency unbounded in the worst
    case — the paper's argument for a deterministic resolution. *)

type params = {
  max_attempts : int;  (** drop threshold (Ethernet: 16) *)
  max_backoff_exp : int;  (** truncation exponent (Ethernet: 10) *)
}

val ethernet : params
(** [ethernet] is the standard 802.3 parameter set. *)

val run_trace :
  ?params:params ->
  ?plan:Rtnet_channel.Fault_plan.t ->
  seed:int ->
  Rtnet_workload.Instance.t ->
  Rtnet_workload.Message.t list ->
  horizon:int ->
  Rtnet_stats.Run.outcome
(** [run_trace ~seed inst trace ~horizon] simulates the trace under
    CSMA-CD/BEB.  [seed] drives the backoff draws (deterministic
    replay).  [plan] injects wire-level fault-plan noise; BEB has no
    replicated state, so per-source misperception merely perturbs its
    backoff decisions and crashes silence the station. *)

val run :
  ?params:params ->
  ?plan:Rtnet_channel.Fault_plan.t ->
  seed:int ->
  Rtnet_workload.Instance.t ->
  horizon:int ->
  Rtnet_stats.Run.outcome
(** [run ~seed inst ~horizon] generates the instance's trace (same
    seed) and simulates it. *)
