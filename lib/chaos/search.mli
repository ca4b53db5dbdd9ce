(** The chaos search loop: sample candidates, execute them on a
    supervised worker pool, collect the failures — over any
    {!Subject}.

    Candidates are indexed [0 .. s_count - 1]; candidate [i] is a pure
    function of [(config, i)] ({!candidate_of}), so a finding is
    reproducible from its index alone and the search is deterministic
    up to the {e set} of results (execution order varies with
    scheduling; results are re-sorted by index).

    Execution robustness comes from {!Rtnet_campaign.Pool.supervise}:
    a hung candidate is killed at the watchdog timeout and retried
    with backoff a bounded number of times, a candidate whose worker
    dies likewise, and an exhausted wall-clock budget stops launching
    new candidates while draining the running ones — the search
    reports partial results ([r_exhausted = true]) and never crashes. *)

type ('e, 's) config = {
  s_env : 'e;  (** the subject's environment under test *)
  s_space : 's;  (** the subject's sampling parameters *)
  s_seed : int;  (** root seed; everything derives from it *)
  s_count : int;  (** candidate budget *)
  s_jobs : int;  (** concurrent workers *)
  s_watchdog_s : float option;  (** per-candidate kill timeout *)
  s_retries : int;  (** retry budget per candidate *)
  s_backoff_s : float;  (** linear backoff unit between retries *)
  s_wall_budget_s : float option;  (** total wall-clock budget *)
}

val default_config : 'e -> 's -> ('e, 's) config
(** Seed 1, 64 candidates, 2 jobs, 30 s watchdog, 1 retry, 0.1 s
    backoff, no wall budget. *)

val candidate_of : ('e, 's, 'c) Subject.t -> ('e, 's) config -> int -> 'c
(** [candidate_of subject config i] is candidate [i]. *)

type 'c finding = {
  fi_index : int;
  fi_candidate : 'c;
  fi_report : Subject.report;
}

type gave_up = { gu_index : int; gu_attempts : int; gu_reason : string }

type 'c result = {
  r_examined : int;  (** candidates that produced any event *)
  r_findings : 'c finding list;  (** failing candidates, by index *)
  r_task_errors : (int * string) list;
      (** candidates whose worker-side task raised outside the
          simulator mapping (should be empty; kept for honesty) *)
  r_gave_up : gave_up list;  (** candidates that exhausted retries *)
  r_exhausted : bool;  (** the wall budget stopped the search early *)
}

val run :
  ?registry:Rtnet_telemetry.Registry.t ->
  ?sink:Rtnet_telemetry.Sink.t ->
  ?log:(string -> unit) ->
  ('e, 's, 'c) Subject.t ->
  ('e, 's) config ->
  'c result
(** [run subject config] executes the search.  [registry] (optional)
    receives the chaos counters ([chaos/candidates], [chaos/findings],
    [chaos/retries], [chaos/gave_up], [chaos/task_errors]); [sink]
    receives one [worker_cell] probe per candidate (wall-clock
    timeline, Perfetto-exportable via {!Rtnet_telemetry.Recorder});
    [log] receives one progress line per notable event. *)
