(** What a chaos search hunts counterexamples in.

    A subject bundles everything that differs between the three things
    [rtnet.chaos] attacks — one faulty bus ({!Plain}), a bridged
    federation ({!Federated}) and the admission engine's accept
    decisions ({!Admission}): the environment a run needs, the
    candidate type and how to sample it, how to run it, how to cut it
    into atoms for delta debugging, and how to freeze it in a replay
    artifact.  {!Search}, {!Shrink} and {!Repro} are written once over
    this signature.

    A run is reduced to a {!report}: an
    {!Rtnet_analysis.Oracle.verdict} and a {b trace fingerprint}, the
    hex digest of a canonical rendering of the run's outcome.  Nothing
    in it depends on wall-clock time, so the fingerprint is a pure
    function of (environment, candidate) — the equality replay
    artifacts assert. *)

type report = {
  rp_verdict : Rtnet_analysis.Oracle.verdict;
  rp_fingerprint : string;
}

module type S = sig
  type env
  (** Everything a run needs besides the candidate; frozen into
      artifacts. *)

  type space
  (** What sampling needs besides the seed: a fault severity budget or
      a churn-stream shape.  Not frozen — a finding replays without
      it. *)

  type candidate

  type atom
  (** The unit delta debugging removes. *)

  val tag : string
  (** Artifact family: ["chaos"], ["topo_chaos"] or ["admit_chaos"].
      The artifact's version key is [tag ^ "_repro_version"] and a
      search writes finding [i] to [tag ^ "_finding_" ^ i ^ ".json"]. *)

  val version : int
  (** Artifact schema version emitted; [1 .. version] are decoded. *)

  val search_label : string
  (** Leads the search summary and every search finding's note. *)

  val unit : string
  (** What {!atoms} counts in shrink notes: ["events"] or
      ["requests"]. *)

  val sample : env -> space -> seed:int -> index:int -> candidate
  (** Candidate [index] of a search rooted at [seed] — a pure function
      of its arguments, so enlarging a search never changes the
      candidates already drawn. *)

  val run :
    ?postmortem:(Rtnet_obs.Postmortem.t -> unit) ->
    env ->
    candidate ->
    (report, string) result
  (** Execute and classify.  [Error msg] when the run cannot even
      start (a configuration the driver or engine refuses); the
      simulator's failure exceptions may escape — [Subject.run] maps
      both to verdicts.  [postmortem], when given, attaches flight
      recorders and receives the black box of a federated run; the
      single-bus subjects have none to give. *)

  val atoms : candidate -> atom list

  val with_atoms : candidate -> atom list -> candidate
  (** [with_atoms c l] is [c] reduced to the atoms [l] (a sublist of
      [atoms c], order preserved). *)

  val refine : check:(candidate -> bool) -> candidate -> candidate
  (** Shrinking past ddmin: mutations that keep [check] true (crash
      windows narrowed, severities weakened; the identity for churn
      streams). *)

  val describe : candidate -> string
  (** One-line label for progress output. *)

  val to_json : env -> candidate -> (string * Rtnet_util.Json.t) list
  (** The artifact fields between the version key and the verdict. *)

  val of_json :
    version:int -> Rtnet_util.Json.t -> (env * candidate, string) result
  (** Decode and validate {!to_json}'s fields from an artifact that
      declared [version]: the environment must be runnable, so a bad
      artifact fails here rather than at replay time. *)
end

type ('e, 's, 'c) t =
  (module S with type env = 'e and type space = 's and type candidate = 'c)

val run :
  ('e, 's, 'c) t ->
  ?postmortem:(Rtnet_obs.Postmortem.t -> unit) ->
  'e ->
  'c ->
  report
(** [run subject env c] executes a candidate and never raises on a
    protocol failure: {!Rtnet_mac.Harness.Mismatch}, safety and
    reconciliation [Failure]s, protocol violations, assertion failures
    and configuration errors map to the corresponding verdicts, with a
    fingerprint derived from the verdict itself since no outcome
    exists. *)

val fingerprint_outcome : Rtnet_stats.Run.outcome -> string
(** Hex digest of {!Rtnet_stats.Run_json.outcome_to_json}'s canonical
    bytes. *)

val trace_seed : seed:int -> index:int -> int
val fault_seed : seed:int -> index:int -> int
(** Candidate [index]'s arrival-trace and fault seeds: disjoint
    {!Rtnet_util.Prng.derive} chains (branches 1 and 2) of the search's
    root seed. *)
