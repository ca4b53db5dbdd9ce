(** Counterexample export: a model trail becomes a deterministic chaos
    replay artifact.

    A trail is a schedule of fault atoms, so it maps directly onto a
    {!Rtnet_channel.Fault_plan} spec — scheduled garbles
    ([garble_at]), scheduled misperceptions ([misperceive_at]) and
    crash windows, {e no random process at all}.  Such a plan consumes
    zero PRNG draws, making the candidate a pure function of
    (scenario, params, trace seed, plan): [ddcr_chaos replay]
    re-executes the artifact byte-identically whatever fault seed it
    carries.

    The artifact's frozen verdict and fingerprint come from an actual
    {!Rtnet_chaos.Subject.run} of the schedule — never from the
    model's prediction — so replay equality is exact by
    construction. *)

val plan_of_trail : Explore.trail -> Rtnet_channel.Fault_plan.spec
(** Fold the trail's actions into scheduled fault-plan atoms.  A
    [Crash s] opens a window closed by the matching [Revive s]; a
    crash still open when the trail ends is closed just past the last
    explored slot start (the model only relied on the source being
    down at slot starts it actually explored). *)

type source = {
  w_scenario : Rtnet_campaign.Spec.scenario;
  w_horizon_ms : int;
  w_params : Rtnet_core.Ddcr_params.t option;
      (** [Some] iff the check overrode the scenario-default
          parameters — pinned into the artifact so replay uses the
          same ones *)
  w_trace_seed : int;
}
(** Everything besides the trail that determines the replayed run —
    it must match what {!Transition.make} was given. *)

val export :
  source ->
  Explore.finding ->
  (Rtnet_chaos.Plain.env, Rtnet_chaos.Plain.candidate) Rtnet_chaos.Repro.t
  * Rtnet_chaos.Subject.report
(** [export src finding] runs the real simulator on the trail's plan
    and freezes the result as a replay artifact whose note names the
    violated model invariant.  Also returns the simulator's report so
    callers can print the verdict without re-running. *)
