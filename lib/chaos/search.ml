module Pool = Rtnet_campaign.Pool
module Oracle = Rtnet_analysis.Oracle

type ('e, 's) config = {
  s_env : 'e;
  s_space : 's;
  s_seed : int;
  s_count : int;
  s_jobs : int;
  s_watchdog_s : float option;
  s_retries : int;
  s_backoff_s : float;
  s_wall_budget_s : float option;
}

let default_config env space =
  {
    s_env = env;
    s_space = space;
    s_seed = 1;
    s_count = 64;
    s_jobs = 2;
    s_watchdog_s = Some 30.;
    s_retries = 1;
    s_backoff_s = 0.1;
    s_wall_budget_s = None;
  }

let candidate_of (type e s c) ((module S) : (e, s, c) Subject.t) config i =
  S.sample config.s_env config.s_space ~seed:config.s_seed ~index:i

type 'c finding = {
  fi_index : int;
  fi_candidate : 'c;
  fi_report : Subject.report;
}

type gave_up = { gu_index : int; gu_attempts : int; gu_reason : string }

type 'c result = {
  r_examined : int;
  r_findings : 'c finding list;
  r_task_errors : (int * string) list;
  r_gave_up : gave_up list;
  r_exhausted : bool;
}

let run ?(log = fun (_ : string) -> ()) subject config =
  let candidates = Array.init config.s_count (candidate_of subject config) in
  let t0 = Unix.gettimeofday () in
  let should_stop () =
    match config.s_wall_budget_s with
    | None -> false
    | Some b -> Unix.gettimeofday () -. t0 >= b
  in
  let stopped_early = ref false in
  let findings = ref [] in
  let task_errors = ref [] in
  let gave_up = ref [] in
  let examined = ref 0 in
  let on_event ev =
    incr examined;
    match ev with
    | Pool.Completed (pos, _, report) ->
      if Oracle.is_failure report.Subject.rp_verdict then begin
        findings :=
          { fi_index = pos; fi_candidate = candidates.(pos); fi_report = report }
          :: !findings;
        log
          (Printf.sprintf "candidate %d: %s" pos
             (Oracle.describe report.Subject.rp_verdict))
      end
    | Pool.Task_error (pos, _, e) ->
      task_errors := (pos, e) :: !task_errors;
      log (Printf.sprintf "candidate %d: task error: %s" pos e)
    | Pool.Gave_up { position; attempts; reason } ->
      gave_up :=
        {
          gu_index = position;
          gu_attempts = attempts;
          gu_reason = Pool.reason_text reason;
        }
        :: !gave_up;
      log
        (Printf.sprintf "candidate %d: gave up after %d attempt(s): %s"
           position attempts (Pool.reason_text reason))
  in
  ignore
    (Pool.supervise ~jobs:config.s_jobs ?watchdog_s:config.s_watchdog_s
       ~retries:config.s_retries ~backoff_s:config.s_backoff_s
       ~on_retry:(fun ~position ~attempt ~reason ->
         log
           (Printf.sprintf "candidate %d: retry %d (%s)" position attempt
              reason))
       ~should_stop:(fun () ->
         let stop = should_stop () in
         if stop && not !stopped_early then begin
           stopped_early := true;
           log "wall budget exhausted: draining running candidates"
         end;
         stop)
       ~on_event
       (Subject.run subject config.s_env)
       candidates);
  let by f l = List.sort (fun a b -> compare (f a) (f b)) l in
  {
    r_examined = !examined;
    r_findings = by (fun f -> f.fi_index) !findings;
    r_task_errors = by fst !task_errors;
    r_gave_up = by (fun g -> g.gu_index) !gave_up;
    r_exhausted = !stopped_early || !examined < config.s_count;
  }
