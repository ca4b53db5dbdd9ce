(** Pass 1: static configuration linter.

    Validates a [Ddcr_params.t] × [Instance.t] pair {e before} any
    simulation, turning the preconditions scattered through Sections
    3.2 and 4.3 into named, citable rules:

    - ["CFG-PARAMS"]: structural parameter validity (tree shapes are
      powers of their branching degree, one non-empty ascending static
      index set per source, disjointness) — Section 3.2;
    - ["CFG-HORIZON"]: the scheduling horizon [c·F] covers the largest
      relative deadline; a shut-out class with compressed time off
      ([θ = 0]) is an error (the idleness pathology, Section 3.2),
      with [θ > 0] a warning;
    - ["CFG-ALPHA"]: the class-mapping offset [α] is sane relative to
      the class width and the horizon — Section 3.2;
    - ["CFG-SLOT"]: the deadline-class width [c] is no finer than the
      medium's contention-slot resolution [x] — Section 4.3;
    - ["CFG-BURST"]: a non-zero packet-bursting budget can actually
      carry at least one frame of the instance — Section 5;
    - ["CFG-OVERLOAD"]: peak offered load within channel capacity
      (above 1.0 {e no} protocol can be feasible) — Section 2.2;
    - ["CFG-ORACLE"]: the centralized NP-EDF oracle schedules the
      workload (a necessary condition for any medium-access protocol)
      — Section 3.1;
    - ["FEAS-BDDCR"]: the full [B_DDCR(s_i, M) ≤ d(M)] feasibility
      conditions of Section 4.3, one diagnostic per violating class.
      Because the paper bound is conservative, a violation on a
      workload the oracle {e can} schedule is reported as a warning
      (the provable price of distribution) unless [strict] is set;
    - ["FEAS-MARGIN"]: informational worst margin when all classes
      pass;
    - ["CFG-MODEL"]: informational nudge when the configuration is
      small enough (at most 3 sources, static tree depth at most 2)
      for the explicit-state model checker — [ddcr_model check] then
      proves the Section 4 invariants over {e every} fault schedule
      within its bounds instead of sampling some;
    - ["CFG-FAULT"]: fault-plan validity against the run horizon
      ({!check_fault}) plus heuristics for legal-but-suspicious plans
      (Gilbert–Elliott states swapped, majority misperception). *)

val check :
  ?strict:bool ->
  Rtnet_core.Ddcr_params.t ->
  Rtnet_workload.Instance.t ->
  Diagnostic.t list
(** [check p inst] lints the configuration; [strict] (default [false])
    promotes ["FEAS-BDDCR"] violations to errors even when the
    centralized oracle accepts the workload.  Never raises: parameter
    sets that [Ddcr_params.validate] rejects produce ["CFG-PARAMS"]
    errors and skip the passes that presuppose validity. *)

val check_fault :
  ?horizon:int ->
  ?stations:int ->
  Rtnet_channel.Fault_plan.spec ->
  Diagnostic.t list
(** [check_fault ?horizon ?stations plan] lints a fault plan (rule
    ["CFG-FAULT"]): {!Rtnet_channel.Fault_plan.validate} failures as
    errors — including crash windows extending past [horizon]
    (bit-times), whose station would never rejoin — and, given
    [stations], {!Rtnet_channel.Fault_plan.check_stations} failures (a
    crash window or scheduled misperception naming a station outside
    [0 .. stations - 1]), plus warnings for suspicious
    parameterizations. *)

val check_admit : Rtnet_admit.Request.trace -> Diagnostic.t list
(** [check_admit tr] lints an admission churn trace by replaying it
    through a scratch {!Rtnet_admit.Engine}:

    - ["CFG-ADMIT"]: engine construction failure (invalid parameters
      for the trace's source count) as an error; one informational
      summary when the trace is clean;
    - ["CFG-ADMIT-DUP"]: an [add] of a flow id that is still admitted
      at that point of the trace is an error (the service will reject
      it; the author almost certainly meant [modify]);
    - ["CFG-ADMIT-HEADROOM"]: an accepted decision that leaves the
      binding class within one of its own on-wire frames of [B_DDCR]
      is a warning — admission is running without slack. *)

val check_topo :
  ?policy:Rtnet_core.Decompose.policy ->
  Rtnet_topology.Topo.t ->
  Diagnostic.t list
(** [check_topo topo] lints a multi-hop topology (rule ["CFG-TOPO"]):
    unroutable flows and a cyclic bridge graph are errors (reported
    granularly, one per problem); on an elaborable topology, a flow
    whose deadline decomposition fails, a per-hop budget below the
    hop's [B_DDCR], and a bridge whose forwarded-class demand fails
    the NP-EDF demand-bound oracle are errors; a segment-local class
    infeasible independently of the federation is a warning; an
    admitted topology yields one informational summary.  [policy] is
    the decomposition policy (default proportional).

    Fault rules (["CFG-TOPO-FAULT"]): a per-segment fault plan whose
    crash window names a station that is neither a declared source nor
    an incoming bridge station of its segment is an error
    ({!Rtnet_topology.Topo.fault_errors}); the bridge oracle runs
    fault-aware (the worst scheduled crash window is deducted from
    every forwarded deadline); and a crash window parking a segment's
    {e only} inbound bridge for longer than a crossing flow's whole
    end-to-end slack is a warning — no downstream re-decomposition can
    absorb it. *)
