(* ddcr_chaos: adversarial counterexample search for the DDCR stack.

   `search` samples candidates of one chaos subject — fault plans on a
   single bus (default, or --config), per-segment fault plans on a
   bridged tree (--topo-segments) or admission churn streams
   (--admit-params) — runs each on a supervised worker pool (watchdog
   timeout, bounded retry with backoff, graceful degradation on an
   exhausted wall budget) and classifies outcomes with the analysis
   oracles.  `shrink` minimizes a finding by delta debugging (drop
   atoms, then narrow crash windows and weaken severities).  `replay`
   re-executes a frozen repro artifact of any subject and verifies that
   both the verdict and the trace fingerprint reproduce
   byte-identically.  `soak` runs repeated single-bus searches under
   one wall budget, freezing each de-duplicated finding as a repro
   artifact.

   Exit codes: 0 success (for `search --expect-finding`: a violation
   was found; for `replay`: the artifact reproduced); 1 expectation
   failed (no finding / verdict or fingerprint drifted / shrink above
   --max-fraction); 2 invalid config, conflicting search modes,
   invalid artifact (including an unknown scenario) or I/O error.

   Examples:
     ddcr_chaos search -s videoconference -n 4 --horizon-ms 2 --candidates 32
     ddcr_chaos search --config test/fixtures/chaos_smoke.json -o finding.json
     ddcr_chaos shrink --repro finding.json -o minimized.json
     ddcr_chaos replay test/fixtures/chaos_repro_min.json
     ddcr_chaos soak -s trading -n 3 --rounds 8 --wall-budget 60 --out-dir repros *)

module Spec = Rtnet_campaign.Spec
module Oracle = Rtnet_analysis.Oracle
module Generator = Rtnet_chaos.Generator
module Subject = Rtnet_chaos.Subject
module Plain = Rtnet_chaos.Plain
module Federated = Rtnet_chaos.Federated
module Admission = Rtnet_chaos.Admission
module Search = Rtnet_chaos.Search
module Shrink = Rtnet_chaos.Shrink
module Repro = Rtnet_chaos.Repro
module Soak = Rtnet_chaos.Soak
module Postmortem = Rtnet_obs.Postmortem

open Cmdliner

let ( let* ) = Result.bind

(* -------------------- shared terms -------------------- *)

let config_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "config" ] ~docv:"FILE"
        ~doc:"Load the single-bus search configuration from a JSON file \
              (fields: scenario, horizon_ms, seed, candidates, budget, \
              jobs, watchdog_s, retries, backoff_s, wall_budget_s).  \
              Exclusive with --topo-segments and --admit-params.")

let candidates_t =
  Arg.(
    value & opt int 32
    & info [ "candidates" ] ~docv:"N" ~doc:"Candidate budget per search.")

let jobs = Cli_common.jobs ~default:2 "Concurrent worker processes."

let watchdog =
  Arg.(
    value & opt float 30.
    & info [ "watchdog" ] ~docv:"S"
        ~doc:"Per-candidate watchdog timeout in seconds (0 disables).")

let retries =
  Arg.(
    value & opt int 1
    & info [ "retries" ] ~docv:"N"
        ~doc:"Retry budget per hung/lost candidate.")

let backoff =
  Arg.(
    value & opt float 0.1
    & info [ "backoff" ] ~docv:"S" ~doc:"Linear retry backoff unit, seconds.")

let wall_budget =
  Arg.(
    value
    & opt (some float) None
    & info [ "wall-budget" ] ~docv:"S"
        ~doc:"Total wall-clock budget; exhaustion stops launching new \
              candidates and reports partial results.")

let max_events =
  Arg.(
    value & opt int 4
    & info [ "max-events" ] ~docv:"N"
        ~doc:"Severity budget: max fault events per sampled plan.")

let max_rate =
  Arg.(
    value & opt float 0.5
    & info [ "max-rate" ] ~docv:"R"
        ~doc:"Severity budget: cap on garble/misperception rates.")

let out = Cli_common.out "Write the first finding as a replay artifact."

let out_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-dir" ] ~docv:"DIR" ~doc:"Write every finding/repro here.")

let quiet = Cli_common.quiet "Suppress progress lines."

let topo_segments =
  Arg.(
    value & opt int 0
    & info [ "topo-segments" ] ~docv:"N"
        ~doc:"Topology mode: hunt accept-then-violate bugs of the federated \
              admission layer — candidates are per-segment fault plans over \
              an N-segment uniform tree (N >= 2; 0 disables).  --load and \
              --deadline-windows describe the per-segment workload; \
              --scenario/--size are ignored.  Exclusive with --config and \
              --admit-params.")

let topo_fanout =
  Arg.(
    value & opt int 2
    & info [ "topo-fanout" ] ~docv:"N" ~doc:"Topology mode: tree fan-out.")

let topo_sources =
  Arg.(
    value & opt int 4
    & info [ "topo-sources" ] ~docv:"N"
        ~doc:"Topology mode: sources per segment.")

let admit_params =
  Arg.(
    value
    & opt (some file) None
    & info [ "admit-params" ] ~docv:"FILE"
        ~doc:"Admission mode: hunt accept-then-violate bugs of the \
              admission-control engine — candidates are churn streams \
              (flow add/remove/modify) decided by rtnet.admit under the \
              protocol parameters in $(docv), after which the admitted set \
              is simulated; a deadline miss in an accepted set is the \
              violation.  --scenario/--size are ignored.  Exclusive with \
              --config and --topo-segments.")

let admit_sources =
  Arg.(
    value & opt int 2
    & info [ "admit-sources" ] ~docv:"N"
        ~doc:"Admission mode: station count.")

let admit_pool =
  Arg.(
    value & opt int 8
    & info [ "admit-pool" ] ~docv:"N"
        ~doc:"Admission mode: flow-id pool size per candidate stream.")

let admit_requests =
  Arg.(
    value & opt int 64
    & info [ "admit-requests" ] ~docv:"N"
        ~doc:"Admission mode: churn-stream length per candidate.")

let admit_phy =
  Arg.(
    value
    & opt string "gigabit-ethernet"
    & info [ "admit-phy" ] ~docv:"NAME"
        ~doc:"Admission mode: broadcast medium (gigabit-ethernet, \
              classic-ethernet, atm-bus).")

let log_of quiet =
  if quiet then fun (_ : string) -> ()
  else fun m -> Printf.eprintf "ddcr_chaos: %s\n%!" m

(* Seed, candidate count and pool supervision, shared by every
   subject's search; the environment and sampling space are filled in
   per subject. *)
let pool_t =
  let make seed count jobs watchdog retries backoff wall_budget =
    {
      Search.s_env = ();
      s_space = ();
      s_seed = seed;
      s_count = count;
      s_jobs = jobs;
      s_watchdog_s = (if watchdog <= 0. then None else Some watchdog);
      s_retries = retries;
      s_backoff_s = backoff;
      s_wall_budget_s = wall_budget;
    }
  in
  Term.(
    const make $ Cli_common.seed $ candidates_t $ jobs $ watchdog $ retries
    $ backoff $ wall_budget)

let budget_t =
  let make max_events max_rate =
    {
      Generator.default_budget with
      Generator.g_max_events = max_events;
      g_max_rate = max_rate;
    }
  in
  Term.(const make $ max_events $ max_rate)

(* The single-bus search configuration: the --config file when given,
   else the command-line scenario. *)
let plain_config config_file ~scenario ~horizon_ms pool budget =
  match config_file with
  | Some f -> Plain.load_config f
  | None ->
    Result.map
      (fun env -> { pool with Search.s_env = env; s_space = budget })
      (Plain.check_env
         {
           Plain.cf_scenario = scenario;
           cf_horizon_ms = horizon_ms;
           cf_params = None;
         })

(* -------------------- search -------------------- *)

let expect_finding =
  Arg.(
    value & flag
    & info [ "expect-finding" ]
        ~doc:"Exit 1 unless the search finds at least one violation — the \
              smoke gate's assertion that the seeded violation is still \
              found.")

let search (type e s c) ~out ~out_dir ~quiet ~expect_finding
    ((module S) as subject : (e, s, c) Subject.t) (config : (e, s) Search.config)
    =
  (* Both outputs are written after the search, so they are checked
     before any candidate runs. *)
  let* () = Cli_common.check_out_dir ~flag:"--out-dir" ~create:false out_dir in
  let* () = Cli_common.check_out_file ~flag:"-o" out in
  let res = Search.run ~log:(log_of quiet) subject config in
  Format.printf "%s: %d/%d candidates examined, %d finding(s), %d gave up%s@."
    S.search_label res.Search.r_examined config.Search.s_count
    (List.length res.Search.r_findings)
    (List.length res.Search.r_gave_up)
    (if res.Search.r_exhausted then " (budget exhausted, partial)" else "");
  List.iter
    (fun f ->
      Format.printf "  candidate %d [%s]: %s@." f.Search.fi_index
        (S.describe f.Search.fi_candidate)
        (Oracle.describe f.Search.fi_report.Subject.rp_verdict))
    res.Search.r_findings;
  let write path f =
    Repro.save subject ~path
      (Repro.make ~env:config.Search.s_env ~candidate:f.Search.fi_candidate
         ~report:f.Search.fi_report
         ~note:
           (Printf.sprintf "%s seed=%d candidate=%d" S.search_label
              config.Search.s_seed f.Search.fi_index))
  in
  match
    (match (out, res.Search.r_findings) with
    | Some path, f :: _ ->
      write path f;
      Format.printf "first finding written to %s@." path
    | Some _, [] | None, _ -> ());
    Option.iter
      (fun dir ->
        List.iter
          (fun f ->
            write
              (Filename.concat dir
                 (Printf.sprintf "%s_finding_%d.json" S.tag f.Search.fi_index))
              f)
          res.Search.r_findings)
      out_dir
  with
  | exception Sys_error e -> Error ("cannot write artifact: " ^ e)
  | () ->
    if expect_finding && res.Search.r_findings = [] then begin
      Format.eprintf
        "ddcr_chaos: --expect-finding: no violation found in %d candidates@."
        res.Search.r_examined;
      Ok 1
    end
    else Ok 0

let run_search pool budget config_file scenario horizon_ms out out_dir quiet
    expect_finding topo_segments topo_fanout topo_sources admit_params
    admit_sources admit_pool admit_requests admit_phy =
  let search subject config =
    search ~out ~out_dir ~quiet ~expect_finding subject config
  in
  match (config_file, topo_segments > 0, admit_params) with
  | _, false, None ->
    let* config = plain_config config_file ~scenario ~horizon_ms pool budget in
    search (module Plain) config
  | None, true, None ->
    let* env =
      Federated.check_env
        {
          Federated.tc_segments = topo_segments;
          tc_fanout = topo_fanout;
          tc_sources = topo_sources;
          tc_load = scenario.Spec.sc_load;
          tc_deadline_windows = scenario.Spec.sc_deadline_windows;
          tc_horizon_ms = horizon_ms;
        }
    in
    search (module Federated) { pool with Search.s_env = env; s_space = budget }
  | None, false, Some file ->
    let* params = Cli_common.load_params file in
    let* env =
      Admission.check_env
        {
          Admission.an_phy = admit_phy;
          an_sources = admit_sources;
          an_params = params;
          an_horizon_ms = horizon_ms;
        }
    in
    search (module Admission)
      {
        pool with
        Search.s_env = env;
        s_space =
          { Admission.ch_pool = admit_pool; ch_requests = admit_requests };
      }
  | _ ->
    Error
      "--config, --topo-segments and --admit-params each select a different \
       search; give at most one"

let search_cmd =
  Cli_common.cmd
    (Cmd.info "search"
       ~doc:"Sample adversarial candidates and hunt for oracle violations")
    Term.(
      const run_search $ pool_t $ budget_t $ config_file $ Cli_common.scenario
      $ Cli_common.horizon_ms () $ out $ out_dir $ quiet $ expect_finding
      $ topo_segments $ topo_fanout $ topo_sources $ admit_params
      $ admit_sources $ admit_pool $ admit_requests $ admit_phy)

(* -------------------- shrink -------------------- *)

let repro_in =
  Arg.(
    required
    & opt (some file) None
    & info [ "repro" ] ~docv:"FILE"
        ~doc:"Finding to minimize (a replay artifact from $(b,search)).")

let shrink_out =
  Cli_common.out_required "Where to write the minimized replay artifact."

let max_fraction =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-fraction" ] ~docv:"F"
        ~doc:"Exit 1 unless the minimized candidate has at most F times the \
              original event (or request) count — the smoke gate's \
              shrink-quality assertion.")

let shrink (type e s c) ~quiet ~repro_in ~shrink_out ~max_fraction
    ((module S) as subject : (e, s, c) Subject.t) (repro : (e, c) Repro.t) =
  let env = repro.Repro.re_env and target = repro.Repro.re_verdict in
  let res =
    Shrink.run subject ~oracle:(Subject.run subject env) ~target
      repro.Repro.re_candidate
  in
  let size c = List.length (S.atoms c) in
  let original = size repro.Repro.re_candidate
  and shrunk = size res.Shrink.sh_candidate in
  let verdict = res.Shrink.sh_report.Subject.rp_verdict in
  if not (Oracle.same_class verdict target) then begin
    Format.eprintf
      "ddcr_chaos: the repro does not reproduce its own verdict (%s vs \
       expected %s) — nothing to shrink@."
      (Oracle.label verdict) (Oracle.label target);
    Ok 1
  end
  else begin
    log_of quiet
      (Printf.sprintf "shrink: %d -> %d %s in %d oracle check(s)" original
         shrunk S.unit res.Shrink.sh_checks);
    (* Re-freeze with the minimized candidate's own verdict and
       fingerprint: the minimized artifact must replay byte-identically
       too. *)
    let minimized =
      Repro.make ~env ~candidate:res.Shrink.sh_candidate
        ~report:res.Shrink.sh_report
        ~note:
          (Printf.sprintf "shrunk from %s (%d -> %d %s)"
             (Filename.basename repro_in) original shrunk S.unit)
    in
    match Repro.save subject ~path:shrink_out minimized with
    | exception Sys_error e ->
      Error (Printf.sprintf "cannot write %s: %s" shrink_out e)
    | () -> (
      Format.printf "shrink: %d -> %d %s [%s], verdict %s, written to %s@."
        original shrunk S.unit
        (S.describe res.Shrink.sh_candidate)
        (Oracle.label verdict) shrink_out;
      match max_fraction with
      | Some f when float_of_int shrunk > f *. float_of_int original ->
        Format.eprintf
          "ddcr_chaos: --max-fraction %.2f: minimized candidate still has %d \
           of %d %s@."
          f shrunk original S.unit;
        Ok 1
      | _ -> Ok 0)
  end

let run_shrink repro_in shrink_out max_fraction quiet =
  let* () = Cli_common.check_out_file ~flag:"-o" (Some shrink_out) in
  let* (Repro.Any (subject, repro)) = Repro.load_any ~path:repro_in in
  shrink ~quiet ~repro_in ~shrink_out ~max_fraction subject repro

let shrink_cmd =
  Cli_common.cmd
    (Cmd.info "shrink"
       ~doc:
         "Minimize a finding by delta debugging (drop events, narrow \
          windows, weaken severities) while preserving the verdict")
    Term.(const run_shrink $ repro_in $ shrink_out $ max_fraction $ quiet)

(* -------------------- replay -------------------- *)

let replay_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Replay artifact to re-execute.")

let run_replay replay_file postmortem_out =
  let* () = Cli_common.check_out_file ~flag:"--postmortem-out" postmortem_out in
  let* (Repro.Any (subject, repro)) = Repro.load_any ~path:replay_file in
  let black_box = ref None in
  let postmortem =
    Option.map (fun _ pm -> black_box := Some pm) postmortem_out
  in
  let r = Repro.replay ?postmortem subject repro in
  (match (postmortem_out, !black_box) with
  | Some out, Some pm ->
    Postmortem.save ~path:out
      {
        pm with
        Postmortem.pm_repro =
          Some (repro.Repro.re_note, repro.Repro.re_fingerprint);
      };
    Format.printf "postmortem: %s (trigger: %a)@." out Postmortem.pp_trigger
      pm.Postmortem.pm_trigger
  | Some out, None ->
    Format.eprintf
      "ddcr_chaos: no driver result to freeze (not a federated artifact, \
       or a configuration error), %s not written@."
      out
  | None, _ -> ());
  let report = r.Repro.rr_report in
  Format.printf "replay %s: verdict %s (%s), fingerprint %s@."
    (Filename.basename replay_file)
    (Oracle.label report.Subject.rp_verdict)
    (if r.Repro.rr_verdict_ok then "matches" else "DRIFTED")
    (if r.Repro.rr_fingerprint_ok then "matches" else "DRIFTED");
  if r.Repro.rr_verdict_ok && r.Repro.rr_fingerprint_ok then Ok 0
  else begin
    Format.eprintf
      "ddcr_chaos: %s no longer reproduces: expected %s / %s, got %s / %s@."
      replay_file
      (Oracle.describe repro.Repro.re_verdict)
      repro.Repro.re_fingerprint
      (Oracle.describe report.Subject.rp_verdict)
      report.Subject.rp_fingerprint;
    Ok 1
  end

let replay_cmd =
  Cli_common.cmd
    (Cmd.info "replay"
       ~doc:
         "Re-execute a replay artifact and verify verdict and trace \
          fingerprint reproduce byte-identically")
    Term.(const run_replay $ replay_file $ Cli_common.postmortem_out)

(* -------------------- soak -------------------- *)

let rounds =
  Arg.(
    value & opt int 4
    & info [ "rounds" ] ~docv:"N" ~doc:"Maximum search rounds.")

let run_soak pool budget config_file scenario horizon_ms rounds out_dir quiet =
  (* --wall-budget bounds the whole soak, not each round. *)
  let* search_config =
    plain_config config_file ~scenario ~horizon_ms
      { pool with Search.s_wall_budget_s = None }
      budget
  in
  (* Soak makes --out-dir when it is missing. *)
  let* () = Cli_common.check_out_dir ~flag:"--out-dir" ~create:true out_dir in
  let res =
    Soak.run ~log:(log_of quiet)
      {
        Soak.so_search = search_config;
        so_rounds = rounds;
        so_wall_budget_s = pool.Search.s_wall_budget_s;
        so_out_dir = out_dir;
      }
  in
  Format.printf
    "soak: %d round(s), %d candidate(s) examined, %d distinct finding(s), \
     %d gave up%s@."
    res.Soak.so_rounds_run res.Soak.so_examined res.Soak.so_findings
    res.Soak.so_gave_up
    (if res.Soak.so_exhausted then " (budget exhausted)" else "");
  List.iter (fun p -> Format.printf "  %s@." p) res.Soak.so_repro_paths;
  Ok 0

let soak_cmd =
  Cli_common.cmd
    (Cmd.info "soak"
       ~doc:
         "Run repeated searches under one wall budget, freezing each \
          de-duplicated finding as a replay artifact")
    Term.(
      const run_soak $ pool_t $ budget_t $ config_file $ Cli_common.scenario
      $ Cli_common.horizon_ms () $ rounds $ out_dir $ quiet)

(* -------------------- group -------------------- *)

let cmd =
  Cmd.group
    (Cmd.info "ddcr_chaos"
       ~doc:
         "Adversarial counterexample search with delta-debugging shrinker \
          and deterministic replay artifacts")
    [ search_cmd; shrink_cmd; replay_cmd; soak_cmd ]
