(** Pass 2: trace invariant checker.

    Mechanically verifies a {!Rtnet_core.Ddcr_trace} event stream
    against the proof obligations of Section 4 — the checks a referee
    would run over an execution, applied to every simulated one:

    - ["TRC-ORDER"]: event timestamps are non-decreasing (the slotted
      medium model, Section 2.1);
    - ["TRC-SAFETY"]: no two [Frame_sent] intervals overlap on the wire
      — the mutual-exclusion safety property of [<p.HRTDM>]
      (Section 4.2); each frame is compared with the next in (start,
      finish, source, uid) order, whatever order they came in;
    - ["TRC-DEADLINE"]: every frame finishes by its absolute deadline
      [DM = T + d] — the timeliness property (Section 4.3); requires
      the workload or a uid → deadline map; frames of an unknown uid
      raise ["TRC-UID"] warnings;
    - ["TRC-NESTING"]: [Tts_begin]/[Tts_end] are balanced and
      unnested, [Sts_*] brackets lie strictly inside a TTs (Section
      3.2's automaton); brackets a horizon left open are
      ["TRC-TRUNCATED"] warnings;
    - ["TRC-PHASE"]: slot phases fit their bracket ("tts" only inside
      a TTs, "sts" only inside an STs, "free"/"attempt" outside both);
    - ["TRC-VIA"]: each frame's path fits its bracket (e.g. a
      [Static_tree] frame inside an STs);
    - ["TRC-ACCOUNT"]: the slot accounting reconciles exactly with the
      channel statistics (idle, collision, garbled and frame counts,
      busy bit-times) and the completion count (Section 4.1).

    One pass: a {!monitor} {!observe}s each event as a run emits it
    ({!Rtnet_core.Ddcr_trace.sink}), holding each frame's four integers
    and each late frame, and {!finish} turns them into {!findings}.

    {b Fault epochs.}  Under a fault plan the timeliness proof's
    premises (all stations up, consistent observation) do not hold
    everywhere.  The checker unions the epochs given by the caller
    (from {!Rtnet_stats.Run.fault_stats}) with the stations' degraded
    spans, by one rule: a [Crash], [Desync] or [Rejoin] of a station
    with no span open opens one, and its [Resync] closes it (a rejoined
    station is listen-only until it resynchronizes); a span still open
    when the trace ends runs to just past its last event.  A deadline
    miss whose window overlaps an epoch is reported as a
    ["TRC-DEGRADED"] {e warning} — measured degradation — rather than a
    ["TRC-DEADLINE"] error; safety (["TRC-SAFETY"]) is never relaxed:
    mutual exclusion must hold under every fault plan. *)

val inside_epoch :
  epochs:(int * int) list -> t0:int -> dm:int -> finish:int -> bool
(** The excusal rule of ["TRC-DEGRADED"]: a frame started at [t0] with
    deadline [dm] and finished at [finish] misses excusably iff an epoch
    overlaps [\[min t0 dm, finish)] — a fault entirely after the frame
    finished cannot have delayed it.  {!finish} answers it for every
    late frame with one sort of the epochs. *)

type monitor
(** The checker part-way through a stream. *)

val monitor :
  ?workload:Rtnet_workload.Message.t list ->
  ?deadlines:(int * int) list ->
  unit ->
  monitor
(** [monitor ()] has seen no event.  [workload] (or raw [deadlines],
    [(uid, absolute_deadline)] pairs — both may be given, [workload]
    wins on clashes) enables the timeliness check. *)

val observe : monitor -> Rtnet_core.Ddcr_trace.event -> unit
(** [observe m e] checks the stream's next event. *)

type findings = {
  safety : string option;  (** the first ["TRC-SAFETY"] message *)
  misses : int;  (** late frames outside every epoch (["TRC-DEADLINE"]) *)
  first_miss : int option;  (** the first such frame's uid *)
  degraded : int list;  (** stations degraded when the trace ends *)
  other_error : (string * string) option;
      (** rule and message of the first error of any other rule *)
  diagnostics : Diagnostic.t list Lazy.t;
      (** every finding, rendered: order errors, then safety, then
          timeliness in stream order, then structure, then accounting *)
}

val finish :
  ?fault_epochs:(int * int) list ->
  ?stats:Rtnet_channel.Channel.stats ->
  ?completions:int ->
  monitor ->
  findings
(** [finish m] ends the stream with what only the finished run knows:
    [fault_epochs] ([(start, finish)] spans), and the channel [stats]
    and [completions] count the accounting reconciles with. *)

val finish_run : outcome:Rtnet_stats.Run.outcome -> monitor -> findings
(** [finish_run ~outcome m] is {!finish} with the outcome's fault
    epochs, channel statistics and completion count. *)

val check :
  ?workload:Rtnet_workload.Message.t list ->
  ?deadlines:(int * int) list ->
  ?fault_epochs:(int * int) list ->
  ?stats:Rtnet_channel.Channel.stats ->
  ?completions:int ->
  Rtnet_core.Ddcr_trace.event list ->
  Diagnostic.t list
(** [check events] folds a {!monitor} over [events] and renders its
    {!finish}. *)

val check_run :
  workload:Rtnet_workload.Message.t list ->
  outcome:Rtnet_stats.Run.outcome ->
  Rtnet_core.Ddcr_trace.event list ->
  Diagnostic.t list
(** [check_run ~workload ~outcome events] is {!check} through
    {!finish_run}. *)
