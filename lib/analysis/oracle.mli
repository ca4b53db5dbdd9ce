(** Run-outcome oracle: one verdict per simulated run.

    The chaos search ([rtnet.chaos]) and the trace checker share this
    verdict vocabulary: a run either upholds the paper's properties
    ({!Pass}) or fails in one of the ways the correctness proofs rule
    out.  {!classify} reduces the {!Trace_check.findings} of a
    completed run to a verdict; exceptions the simulator raises
    ({!Rtnet_mac.Harness.Mismatch}, safety failures) are mapped to
    verdicts by the caller via the dedicated constructors.

    Verdicts carry enough detail to print, but equality for the
    shrinker is {e by class} ({!same_class}): a minimized plan must
    reproduce the same {e kind} of violation, not the same slot
    numbers. *)

type verdict =
  | Pass  (** every oracle holds *)
  | Safety_violation of string
      (** mutual exclusion broken (TRC-SAFETY, or the harness's
          transmission-log reconciliation failed) — never acceptable
          under any fault plan (Section 4.2) *)
  | Deadline_miss of { misses : int; first_uid : int }
      (** a frame finished after [DM] {e outside} every fault epoch
          (TRC-DEADLINE errors; epoch-overlapping misses are measured
          degradation, not violations) *)
  | Failed_resync of { source : int }
      (** a station was still desynchronized (or down-and-rejoined
          without recovering) when the run ended — divergence recovery
          did not complete *)
  | Invariant_violation of { rule : string; message : string }
      (** any other trace-checker [Error] (TRC-ORDER, TRC-ACCOUNT, …) *)
  | Harness_mismatch of string
      (** {!Rtnet_mac.Harness.Mismatch}: replicas disagreed with the
          wire in a way the harness cross-check caught *)
  | Run_crash of string
      (** the simulator itself raised (protocol violation, assertion)
          — always a finding *)
  | Chain_deadline_miss of { misses : int; flow : string }
      (** a federated chain completed its last hop after the end-to-end
          deadline [T0 + d(M)] (shed / overflow-dropped chains are not
          counted here — see the next two) *)
  | Handoff_loss of { bridge : string; chains : int }
      (** chains abandoned at a cross-segment hand-off: degraded-mode
          operation shed them because their remaining budgets no
          longer decomposed after a bridge crash *)
  | Bridge_overflow of { bridge : string; dropped : int }
      (** a crashed bridge's bounded store-and-forward queue
          overflowed and dropped held messages (structured loss) *)
  | Admission_violation of { flow : string; misses : int }
      (** the admission engine accepted a flow set as feasible (every
          [B_DDCR] within its deadline) yet simulating exactly that set
          misses deadlines — the accept-then-violate bug class
          [rtnet.admit]'s chaos mode hunts; [flow] is the first missing
          class *)

val label : verdict -> string
(** [label v] is the verdict's class name: ["pass"],
    ["safety-violation"], ["deadline-miss"], ["failed-resync"],
    ["invariant-violation"], ["harness-mismatch"], ["run-crash"],
    ["chain-deadline-miss"], ["handoff-loss"], ["bridge-overflow"],
    ["admission-violation"]. *)

val describe : verdict -> string
(** [describe v] is a one-line human-readable rendering including the
    payload. *)

val is_failure : verdict -> bool
(** [is_failure v] iff [v <> Pass]. *)

val same_class : verdict -> verdict -> bool
(** [same_class a b] iff the verdicts have the same constructor — the
    shrinker's preservation criterion. *)

val to_json : verdict -> Rtnet_util.Json.t
(** Canonical encoding (fixed key order; replay artifacts embed it). *)

val of_json : Rtnet_util.Json.t -> (verdict, string) result

val classify : Trace_check.findings -> verdict
(** [classify f] reduces the trace checker's findings on a completed
    run to one verdict, most severe first: safety, then out-of-epoch
    deadline misses, then incomplete divergence recovery (a station
    still degraded when the trace ends), then any other checker error.
    Warnings (degraded epochs, truncated brackets) never fail a run. *)

val classify_topo : Rtnet_topology.Driver.result -> verdict
(** [classify_topo r] reduces a federated end-to-end run
    ({!Rtnet_topology.Driver.run}) to one verdict, most severe first:
    {!Bridge_overflow} (a crashed bridge's bounded store-and-forward
    queue lost messages), {!Handoff_loss} (chains shed under
    degraded-mode operation), {!Chain_deadline_miss} (delivered chains
    that overran their end-to-end deadline; shed and dropped chains
    are accounted by the former two, never double-counted), else
    {!Pass}.  Exceptions the federation raises (harness mismatch,
    protocol violation) are mapped by the caller, as with
    {!classify}. *)
