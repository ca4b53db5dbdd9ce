(** The federation subject: a uniform bridged tree under per-segment
    fault plans.

    A candidate's plans ({!Generator.sample_topo}: every one parks at
    least one bridge station) attach to the tree
    ({!Rtnet_topology.Topo.with_faults}), the tree is admitted
    slack-weighted and run through the federated driver with the
    pinned seeds, and the end-to-end outcome is classified by
    {!Rtnet_analysis.Oracle.classify_topo} — [Bridge_overflow],
    [Handoff_loss] and [Chain_deadline_miss] are the
    accept-then-violate verdicts the search hunts.  The fingerprint
    digests the driver's completion-schedule fingerprint together with
    the verdict rendering.

    Shrinking runs ddmin over the {e union} of (segment, fault event)
    pairs — a whole-federation storm shrinks to the one segment
    (typically the one bridge crash) carrying the verdict — then
    {!Shrink.refine_plan} per segment, every mutation re-checked
    against the full plan set.  Artifacts carry
    ["topo_chaos_repro_version"] 1. *)

type env = {
  tc_segments : int;  (** tree size, [>= 2] (a 1-segment tree is flat) *)
  tc_fanout : int;
  tc_sources : int;  (** sources per segment *)
  tc_load : float;  (** per-segment uniform offered load *)
  tc_deadline_windows : float;
  tc_horizon_ms : int;
}
(** The tree, described by the parameters of the uniform
    [Topo.tree] shape the campaign's topo scenarios expand into, so
    artifacts stay self-contained. *)

type candidate = {
  td_plans : (string * Rtnet_channel.Fault_plan.spec) list;
      (** per-segment fault plans, in segment order *)
  td_trace_seed : int;
  td_fault_seed : int;
}

include
  Subject.S
    with type env := env
     and type candidate := candidate
     and type space = Generator.budget
     and type atom = string * Rtnet_channel.Fault_plan.spec

val check_env : env -> (env, string) result
(** [Ok env] iff the tree is well formed (at least 2 segments, a
    fanout and a source per segment, a finite positive load and
    deadline), the horizon is between 1 ms and {!Plain.max_horizon_ms},
    the tree has at most {!Plain.max_trace_messages} stations
    (segments × sources, checked before any segment is built; every
    class releases a message within the horizon, so the message cap
    implies this one), and the segments together can release at most
    {!Plain.max_trace_messages} messages ({!Plain.messages_bound} summed
    over the segments).  Checked wherever a federated environment is
    decoded or built, so neither an artifact nor a search can demand
    unbounded work or make {!tree} raise. *)

val tree : env -> Rtnet_topology.Topo.t
(** The (fault-free) tree the environment describes; raises
    [Invalid_argument] on an environment {!check_env} rejects. *)
