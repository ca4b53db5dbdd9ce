(** Self-contained, deterministic replay artifacts.

    A repro freezes everything needed to re-execute one chaos finding
    byte-identically: the subject's environment and candidate (its
    {!Subject.S.to_json} fields), the expected
    {!Rtnet_analysis.Oracle.verdict} and the expected trace
    fingerprint.  The JSON envelope is the subject's version key, its
    fields, then ["verdict"], ["fingerprint"] and ["note"].
    [ddcr_chaos replay] re-runs the candidate and exits non-zero
    unless {e both} the verdict and the fingerprint reproduce exactly —
    the committed repro fixtures under [test/fixtures/] are replayed
    this way on every [dune runtest]. *)

type ('e, 'c) t = {
  re_env : 'e;
  re_candidate : 'c;
  re_verdict : Rtnet_analysis.Oracle.verdict;  (** expected verdict *)
  re_fingerprint : string;  (** expected trace fingerprint *)
  re_note : string;  (** provenance, e.g. "search seed=7 candidate=12" *)
}

val make :
  env:'e -> candidate:'c -> report:Subject.report -> note:string -> ('e, 'c) t
(** [make ~env ~candidate ~report ~note] freezes a finding. *)

val version_key : ('e, 's, 'c) Subject.t -> string
(** [tag ^ "_repro_version"]. *)

val to_json : ('e, 's, 'c) Subject.t -> ('e, 'c) t -> Rtnet_util.Json.t
(** Canonical encoding (fixed key order, current version). *)

val of_json :
  ('e, 's, 'c) Subject.t -> Rtnet_util.Json.t -> (('e, 'c) t, string) result
(** Decodes and validates: schema version in [1 .. version], the
    subject's fields ({!Subject.S.of_json}) and a well-formed verdict —
    [ddcr_lint --check-repro] is this function on a file. *)

val save : ('e, 's, 'c) Subject.t -> path:string -> ('e, 'c) t -> unit

val load :
  ('e, 's, 'c) Subject.t -> path:string -> (('e, 'c) t, string) result

type replay = {
  rr_report : Subject.report;  (** what the re-execution produced *)
  rr_verdict_ok : bool;  (** verdict structurally equal to expected *)
  rr_fingerprint_ok : bool;  (** fingerprint byte-equal to expected *)
}

val replay :
  ?postmortem:(Rtnet_obs.Postmortem.t -> unit) ->
  ('e, 's, 'c) Subject.t ->
  ('e, 'c) t ->
  replay
(** [replay subject t] re-executes the candidate and compares against
    the expectations.  [postmortem] is passed to the subject's run
    ([ddcr_chaos replay --postmortem-out] regenerates the black box of
    a frozen federated failure this way). *)

type any = Any : ('e, 's, 'c) Subject.t * ('e, 'c) t -> any

val any_of_json : Rtnet_util.Json.t -> (any, string) result
(** [any_of_json j] decodes an artifact of any of the three subjects
    ({!Plain}, {!Federated}, {!Admission}), dispatching on the version
    key.  A tree carrying none of the keys is decoded as plain. *)

val load_any : path:string -> (any, string) result
(** [load_any ~path] is {!any_of_json} on a file: [ddcr_chaos replay]
    and [shrink] take whichever artifact they are handed. *)
