(** Common result representation for every protocol run.

    All protocol simulators (CSMA/DDCR, the baselines and the
    centralized NP-EDF oracle) report their run as an {!outcome}; all
    experiment harnesses consume {!metrics} computed from it, so
    protocols are compared on identical terms. *)

type completion = {
  c_msg : Rtnet_workload.Message.t;  (** the transmitted message *)
  c_start : int;  (** first bit on the wire, bit-times *)
  c_finish : int;  (** last bit on the wire, bit-times *)
}

val latency : completion -> int
(** [latency c] is [c_finish − T(msg)] — the successful transmission
    latency bounded by [B_DDCR] in Section 4.3. *)

val lateness : completion -> int
(** [lateness c] is [c_finish − DM(msg)]; positive means the timeliness
    property was violated. *)

val missed : completion -> bool
(** [missed c] is [lateness c > 0]. *)

type source_faults = {
  sf_source : int;  (** station id *)
  sf_crashed_slots : int;  (** slots spent down (crash windows) *)
  sf_missed : int;  (** non-idle slots the station missed while down *)
  sf_misperceived : int;  (** slots where its local observation
                              disagreed with the wire *)
  sf_desync_slots : int;  (** slots spent desynchronized (listen-only,
                              replica state stale) *)
  sf_resyncs : int;  (** recoveries: times it re-acquired the shared
                         state and re-entered contention *)
}
(** Per-station degradation counters under a {!Rtnet_channel.Fault_plan}. *)

type fault_stats = {
  f_per_source : source_faults list;  (** one entry per station, in id order *)
  f_epochs : (int * int) list;
      (** merged fault epochs [\[start, finish)] in bit-times: maximal
          spans during which some station was down, desynchronized or
          observing inconsistently, or the wire garbled a frame.
          Timeliness is only asserted outside these spans. *)
}

type outcome = {
  protocol : string;  (** protocol label *)
  completions : completion list;  (** in completion order *)
  unfinished : Rtnet_workload.Message.t list;
      (** messages still queued when the run ended (not counted as
          misses if their deadline is beyond the horizon) *)
  dropped : Rtnet_workload.Message.t list;
      (** messages abandoned by the protocol (e.g. BEB's 16-attempt
          limit) — always counted as misses *)
  horizon : int;  (** end of simulated time, bit-times *)
  channel : Rtnet_channel.Channel.stats option;  (** medium counters, if simulated *)
  faults : fault_stats option;
      (** degradation bookkeeping; [Some] iff the run executed under a
          fault plan (even an empty one), [None] otherwise *)
}

type metrics = {
  delivered : int;  (** messages completed *)
  deadline_misses : int;  (** completions after [DM], plus drops, plus
                              unfinished whose deadline fell within the
                              horizon *)
  miss_ratio : float;  (** misses / (delivered + dropped + due) *)
  worst_latency : int;  (** max latency (0 if nothing delivered) *)
  mean_latency : float;  (** mean latency *)
  worst_lateness : int;  (** max lateness; negative = min slack *)
  inversions : int;  (** deadline inversions, see {!inversions} *)
  garbled : int;  (** frames destroyed by injected channel noise
                      ({!Rtnet_channel.Channel.stats}[.garbled_count];
                      0 when no medium was simulated) — surfaces fault
                      injection in every scoreboard and campaign JSON *)
  utilization : float;  (** carried bits / elapsed bits, if known *)
  desync_slots : int;  (** total slots any station spent desynchronized *)
  recoveries : int;  (** total divergence recoveries (resyncs) *)
  misperceived : int;  (** total locally-misperceived slots *)
  missed_offline : int;  (** total non-idle slots missed while down *)
}

val inversions : completion list -> int
(** [inversions cs] counts pairs [(a, b)] where [a] started
    transmission while [b] was already pending ([T(b) <= c_start a])
    yet [DM(a) > DM(b)] and [b] completed after [a] ([b] comes after
    [a] in [cs]) — the deadline-inversion count that CSMA/DDCR's
    deadline equivalence classes are designed to keep small.

    O(n log² n) time and O(n) space for [n] completions: divide and
    conquer on list position, with a Fenwick tree over deadline ranks
    for the pairs across each split.  [cs] need not be in start order
    ({!merge} of overlapping media is not). *)

val metrics : outcome -> metrics
(** [metrics o] computes the scoreboard for one run. *)

val merge : protocol:string -> horizon:int -> outcome list -> outcome
(** [merge ~protocol ~horizon outcomes] combines the outcomes of
    several independent media simulated over the same span — parallel
    busses ({!Rtnet_core.Multi_bus} — forward reference: core sits above
    stats) or the federated segments of a multi-hop topology — into one
    aggregate outcome under the given label: completions re-sorted by
    [(c_finish, c_start, uid)] (a total order, so the merge is
    deterministic whatever the per-medium simulation order was),
    unfinished and dropped lists concatenated, channel statistics
    summed ([None] only when no constituent simulated a medium), and
    fault bookkeeping combined ([None] when every constituent ran
    fault-free; otherwise per-source counters concatenated in outcome
    order — station ids are per-medium, not renumbered — and fault
    epochs re-merged by coalescing overlaps). *)

val per_class_worst_latency : outcome -> (int * int) list
(** [per_class_worst_latency o] maps each class id (that completed at
    least one message) to its worst observed latency — compared against
    [B_DDCR] per class in the validation experiments. *)

val pp_metrics : Format.formatter -> metrics -> unit
(** [pp_metrics fmt m] prints a one-line scoreboard. *)
