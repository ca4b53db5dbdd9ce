(** Compilation of a campaign spec into its deterministic work-list,
    and execution of individual cells.

    {!cells} enumerates the full sweep in a fixed nesting order
    (scenario, then variant, then replicate, then protocol), assigns
    each cell a dense index and its derived seeds ({!Seeding}), and
    gives it a stable human-readable {!key} — the identity used by the
    checkpoint journal and the regression gate.  {!run_cell} executes
    one cell with the existing simulators and reduces it to
    {!Rtnet_stats.Run.metrics}; it is what the worker processes run.

    {!lint} is the campaign's fail-fast gate: every (scenario ×
    variant) configuration of the sweep is passed through the
    [rtnet.analysis] configuration linter before any worker is forked,
    so an infeasible sweep is rejected in milliseconds instead of
    burning worker time. *)

type cell = {
  index : int;  (** dense position in the work-list *)
  protocol : Spec.protocol;
  scenario : Spec.scenario;
  variant : Spec.variant;
  replicate : int;  (** 0-based replication number *)
  trace_seed : int;  (** arrival-trace seed — protocol-independent *)
  protocol_seed : int;  (** protocol-private randomness seed *)
  fault_seed : int;
      (** fault-plan sampler seed — protocol-independent, so every
          protocol faces the same fault sample path *)
}

val cells : Spec.t -> cell array
(** [cells spec] is the work-list, indexed by [cell.index]. *)

val key : cell -> string
(** [key c] is ["<protocol>/<scenario>/<variant>/r<replicate>"], e.g.
    ["ddcr/trading-4/f0.05-b0-t0/r1"] — unique within a campaign and
    stable across runs and code versions. *)

type result_ = {
  r_metrics : Rtnet_stats.Run.metrics;
  r_channel : Rtnet_channel.Channel.stats option;
      (** medium counters ([None] for the oracle, which has none) *)
  r_elapsed_s : float;  (** wall-clock cell runtime (excluded from
                            determinism comparisons) *)
  r_telemetry : Rtnet_util.Json.t option;
      (** telemetry snapshot (registry + per-class headroom), recorded
          only for DDCR cells run with [telemetry:true]; serialized
          behind an optional key, so reports without it are
          byte-identical to pre-telemetry ones *)
}

val run_cell : ?telemetry:bool -> Spec.t -> cell -> result_
(** [run_cell spec c] builds the instance, generates the seeded trace
    and runs the cell's protocol to the spec horizon.  Deterministic
    up to [r_elapsed_s].  With [telemetry] (default [false]), a DDCR
    cell additionally records a {!Rtnet_telemetry.Recorder} snapshot
    into [r_telemetry]; the snapshot itself is deterministic. *)

val result_to_json : result_ -> Rtnet_util.Json.t

val result_of_json : Rtnet_util.Json.t -> (result_, string) result

val lint : Spec.t -> Rtnet_analysis.Diagnostic.t list
(** [lint spec] runs {!Rtnet_analysis.Config_lint.check} over every
    (scenario × variant) configuration of the sweep, with the same
    CSMA/DDCR parameter derivation {!run_cell} uses, plus
    {!Rtnet_analysis.Config_lint.check_fault} over every variant's
    fault plan (against the spec horizon, and against the stations of
    the smallest single-bus scenario).  Subjects are prefixed with
    the scenario/variant labels.  The runner aborts the campaign iff
    the result contains an [Error] diagnostic. *)
