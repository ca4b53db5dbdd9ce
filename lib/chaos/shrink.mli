(** Delta-debugging shrinker for failing candidates.

    Minimizes a candidate while preserving the oracle verdict {e class}
    ({!Rtnet_analysis.Oracle.same_class}): first classic ddmin
    (Zeller's delta debugging) over the subject's atoms — fault events
    of a plan, (segment, fault event) pairs of a federated schedule,
    requests of a churn stream (order-preserving removal only) — then
    the subject's {!Subject.S.refine} step.

    The oracle is re-checked after every candidate mutation; a
    mutation that changes the verdict class is discarded.  The result
    is 1-minimal with respect to atom removal: dropping any single
    remaining atom loses the verdict. *)

type 'c result = {
  sh_candidate : 'c;  (** the minimized candidate *)
  sh_report : Subject.report;
      (** the minimized candidate's report (same verdict class as the
          target unless the input did not reproduce it) *)
  sh_checks : int;  (** oracle invocations spent *)
}

val run :
  ('e, 's, 'c) Subject.t ->
  oracle:('c -> Subject.report) ->
  target:Rtnet_analysis.Oracle.verdict ->
  'c ->
  'c result
(** [run subject ~oracle ~target c] minimizes [c].  [oracle] must be
    deterministic (re-run the candidate with its pinned seeds);
    [target] is the verdict to preserve.  If [c] itself does not
    reproduce [target]'s class under [oracle], it is returned
    unchanged with [sh_checks = 1]. *)

val refine_plan :
  check:(Rtnet_channel.Fault_plan.spec -> bool) ->
  Rtnet_channel.Fault_plan.spec ->
  Rtnet_channel.Fault_plan.spec
(** The fault-plan refine step: each crash window is repeatedly
    replaced by whichever half ({!Rtnet_channel.Fault_plan.split_crash})
    still passes [check], then garble/misperception rates are halved
    ({!Rtnet_channel.Fault_plan.scale_severity}) while [check] holds. *)
