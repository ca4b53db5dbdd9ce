(** The single-bus subject: one scenario instance under a sampled
    fault plan.

    A candidate is executed exactly like a campaign cell — workload
    trace from the scenario instance, DDCR under the instantiated
    fault plan through {!Rtnet_mac.Harness} — and classified with
    {!Rtnet_analysis.Oracle.classify}; its fingerprint digests the
    canonical run outcome ({!Subject.fingerprint_outcome}).  Plans come
    from {!Generator.sample} and shrink by fault event, then by
    {!Shrink.refine_plan}.

    Artifacts carry ["chaos_repro_version"] 2: v2 added the optional
    protocol-parameter override and the scheduled fault-plan atoms; a
    v1 artifact decodes with [cf_params = None], and a v1 artifact
    carrying ["params"] is rejected. *)

type env = {
  cf_scenario : Rtnet_campaign.Spec.scenario;
  cf_horizon_ms : int;
  cf_params : Rtnet_core.Ddcr_params.t option;
      (** protocol-parameter override; [None] means
          [Ddcr_params.default] of the scenario instance.  Model-checker
          counterexamples seeded by a pathological configuration pin it
          here so the repro replays against those exact parameters. *)
}

type candidate = {
  cd_plan : Rtnet_channel.Fault_plan.spec;
  cd_trace_seed : int;  (** arrival-trace stream *)
  cd_fault_seed : int;  (** fault-plan sampler stream *)
}

include
  Subject.S
    with type env := env
     and type candidate := candidate
     and type space = Generator.budget
     and type atom = Rtnet_channel.Fault_plan.spec

val max_trace_messages : int
(** The largest trace a plain environment may demand: one million
    messages.  The committed artifacts and search configurations need
    a few hundred. *)

val max_horizon_ms : int
(** The longest horizon a plain environment may demand: one minute
    (60 000 ms).  A run resolves a slot at least every slot time, so
    the horizon bounds its work as the trace size does. *)

val messages_bound : horizon_ms:int -> (int * int) list -> float
(** [messages_bound ~horizon_ms rates] is the most messages classes of
    the given [(a, w)] can release over [horizon_ms]: Σ a·⌈horizon/w⌉
    (a class releases at most [a] messages in any window [w]), in
    floats so no product overflows.  Every [w] must be positive. *)

val check_env : env -> (env, string) result
(** [Ok env] iff the scenario has a single-bus instance (an unknown
    kind, or ["topo"], does not), the horizon is between 1 ms and
    {!max_horizon_ms}, and no trace of the instance over the horizon can hold more than
    {!max_trace_messages} messages: Σ a·⌈horizon/w⌉ over the classes
    (each releases at most [a] messages in any window [w]), computed
    before any trace is generated.  Checked wherever a plain
    environment is decoded or built, so a decoded artifact cannot
    demand unbounded work. *)

(** {1 Search configuration files} *)

val config_to_json : (env, space) Search.config -> Rtnet_util.Json.t
(** Canonical encoding — the committed smoke config is this shape. *)

val config_of_json :
  Rtnet_util.Json.t -> ((env, space) Search.config, string) result

val load_config : string -> ((env, space) Search.config, string) result
(** [load_config path] parses a config file. *)
