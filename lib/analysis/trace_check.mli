(** Pass 2: trace invariant checker.

    Mechanically verifies a {!Rtnet_core.Ddcr_trace} event stream
    against the proof obligations of Section 4 — the checks a referee
    would run over an execution, applied to every simulated one:

    - ["TRC-ORDER"]: event timestamps are non-decreasing (the slotted
      medium model, Section 2.1);
    - ["TRC-SAFETY"]: no two [Frame_sent] intervals overlap on the wire
      — the mutual-exclusion safety property of [<p.HRTDM>]
      (Section 4.2);
    - ["TRC-DEADLINE"]: every frame finishes by its absolute deadline
      [DM = T + d] — the timeliness property (Section 4.3); requires
      the workload (or an explicit uid → deadline map); frames whose
      uid is unknown raise ["TRC-UID"] warnings;
    - ["TRC-NESTING"]: [Tts_begin]/[Tts_end] are balanced and
      unnested, [Sts_*] brackets lie strictly inside a TTs
      (Section 3.2's automaton structure); brackets left open by a
      horizon-truncated run are reported as ["TRC-TRUNCATED"] warnings;
    - ["TRC-PHASE"]: idle and collision slots carry a legal phase name
      consistent with the bracket they occur in ("tts" only inside a
      TTs, "sts" only inside an STs, "free"/"attempt" outside both);
    - ["TRC-VIA"]: each frame's transmission path matches its bracket
      context (e.g. a [Static_tree] frame inside an STs);
    - ["TRC-ACCOUNT"]: the trace's slot accounting reconciles exactly
      with the channel statistics (idle, collision, garbled and frame
      counts, busy bit-times) and, when given, the completion count
      (Section 4.1's accounting of the medium).

    {b Fault epochs.}  Under a fault plan the timeliness proof's
    premises (all stations up, consistent observation) do not hold
    everywhere.  The checker unions the epochs given by the caller
    (from {!Rtnet_stats.Run.fault_stats}) with epochs it derives from
    the trace itself ([Crash]/[Desync] opens a span for the source,
    [Resync] closes it; a [Rejoin] keeps it open — the station is
    listen-only until it resynchronizes).  A deadline miss whose
    window overlaps an epoch is reported as a ["TRC-DEGRADED"]
    {e warning} — measured degradation — rather than a
    ["TRC-DEADLINE"] error; safety (["TRC-SAFETY"]) is never relaxed:
    mutual exclusion must hold under every fault plan. *)

val inside_epoch :
  epochs:(int * int) list -> t0:int -> dm:int -> finish:int -> bool
(** The excusal rule of ["TRC-DEGRADED"]: a frame started at [t0] with
    deadline [dm] and finished at [finish] misses excusably iff an epoch
    overlaps [\[min t0 dm, finish)] — a fault entirely after the frame
    finished cannot have delayed it. *)

val check :
  ?workload:Rtnet_workload.Message.t list ->
  ?deadlines:(int * int) list ->
  ?fault_epochs:(int * int) list ->
  ?stats:Rtnet_channel.Channel.stats ->
  ?completions:int ->
  Rtnet_core.Ddcr_trace.event list ->
  Diagnostic.t list
(** [check events] runs every structural invariant; [workload] (or raw
    [deadlines], [(uid, absolute_deadline)] pairs — both may be given,
    [workload] wins on clashes) enables the timeliness check, [stats]
    the channel reconciliation and [completions] the completion-count
    reconciliation.  [fault_epochs] are [(start, finish)] spans (e.g.
    {!Rtnet_stats.Run.fault_stats.f_epochs}) inside which deadline
    misses downgrade to ["TRC-DEGRADED"] warnings; epochs derived from
    the trace's own fault events are always added. *)

val check_run :
  workload:Rtnet_workload.Message.t list ->
  outcome:Rtnet_stats.Run.outcome ->
  Rtnet_core.Ddcr_trace.event list ->
  Diagnostic.t list
(** [check_run ~workload ~outcome events] is {!check} wired to a
    completed simulation: deadlines from the workload, channel
    statistics and completion count from the outcome, fault epochs
    from the outcome's [faults] statistics (if the run used a fault
    plan). *)
