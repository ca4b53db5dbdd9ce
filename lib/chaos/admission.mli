(** The admission subject: the admission engine's accept decisions.

    A candidate is a churn stream ({!Generator.sample_churn}).  Running
    it drives the whole stream through a fresh {!Rtnet_admit.Engine},
    then simulates the finally-admitted set (periodic arrivals, pinned
    trace seed) over the horizon.  A deadline miss in a set the engine
    accepted as feasible is the accept-then-violate bug:
    {!Rtnet_analysis.Oracle.Admission_violation} naming the first
    missing flow.  An empty final set passes trivially.  The
    fingerprint digests the decision log lines {e and} the outcome, so
    replay asserts the decisions themselves.

    Streams shrink by ddmin over the requests alone (order-preserving
    removal, so the result is a subsequence of the original — any
    decision it elicits the original also explains); the usual outcome
    is the single [add] whose acceptance the simulation contradicts.
    Artifacts carry ["admit_chaos_repro_version"] 1. *)

type env = {
  an_phy : string;  (** medium, by {!Rtnet_admit.Request.phy_of_name} *)
  an_sources : int;
  an_params : Rtnet_core.Ddcr_params.t;
      (** the parameters under test — broken-params fixtures plant the
          accept-then-violate bug here *)
  an_horizon_ms : int;  (** simulated span for the violation check *)
}

type churn = {
  ch_pool : int;  (** flow-id pool size per stream *)
  ch_requests : int;  (** stream length *)
}

type candidate = {
  ar_requests : Rtnet_admit.Request.t list;
  ar_trace_seed : int;  (** arrival-trace stream for the final set *)
}

include
  Subject.S
    with type env := env
     and type candidate := candidate
     and type space = churn
     and type atom = Rtnet_admit.Request.t

val check_env : env -> (env, string) result
(** [Ok env] iff [env] has a source, a horizon of 1 to
    {!Plain.max_horizon_ms} ms, and builds an engine.  Checked wherever
    an admission environment is decoded or built; {!of_json} also
    rejects requests whose added and modified flows could release more
    than {!Plain.max_trace_messages} messages ({!Plain.messages_bound})
    before any decision is made. *)

val simulate_admitted :
  Rtnet_admit.Engine.t ->
  trace_seed:int ->
  horizon_ms:int ->
  (Rtnet_stats.Run.outcome * Rtnet_analysis.Oracle.verdict, string) result
(** [simulate_admitted eng ~trace_seed ~horizon_ms] is the
    accept-then-violate check: [eng]'s admitted set simulated under its
    parameters for [horizon_ms] ms (trace from [trace_seed]; the slot
    asserts replica lockstep).  The verdict is [Pass] without a deadline miss,
    else an admission violation naming the first class that finished
    late, then dropped, then unfinished though due.  [Error] if the
    set does not instantiate (an empty one does not). *)
