(* ddcr_campaign: parallel experiment-campaign runner.

   Compiles a declarative sweep (protocol x scenario x variant x
   replicate) into a deterministic work-list, executes it on a pool of
   worker processes, checkpoints completed cells for resume, and writes
   a versioned BENCH_<name>.json report.  `compare` re-runs (or loads)
   a campaign and diffs it against a stored baseline, exiting non-zero
   on metric regressions beyond the configured tolerances.

   Exit codes: 0 success / no regression; 1 regression detected;
   2 invalid spec, lint rejection or I/O error; 3 campaign interrupted
   (checkpoint left in place; re-run with --resume).

   Examples:
     ddcr_campaign list
     ddcr_campaign run smoke -j 2
     ddcr_campaign run --spec sweep.json -o BENCH_sweep.json --resume
     ddcr_campaign compare campaign_v1 --baseline BENCH_campaign_v1.json *)

module Spec = Rtnet_campaign.Spec
module Runner = Rtnet_campaign.Runner
module Report = Rtnet_campaign.Report
module Pool = Rtnet_campaign.Pool
module Recorder = Rtnet_telemetry.Recorder
module Registry = Rtnet_telemetry.Registry

open Cmdliner

let ( let* ) = Result.bind

(* -------------------- shared terms -------------------- *)

let campaign_name =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"CAMPAIGN"
        ~doc:"Builtin campaign name (see $(b,list)); omit with $(b,--spec).")

let spec_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "spec" ] ~docv:"FILE"
        ~doc:"Load the campaign spec from a JSON file instead of a builtin.")

let jobs =
  Cli_common.jobs ~default:0 "Worker processes (0 = one per recommended core)."

let out = Cli_common.out "Report path (default BENCH_<name>.json)."

let resume =
  Cli_common.resume
    "Reuse the checkpoint journal of an interrupted run instead of starting \
     fresh."

let max_cells =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cells" ] ~docv:"N"
        ~doc:
          "Stop after N fresh results, leaving the checkpoint in place \
           (simulates an interrupted campaign; exit code 3).")

let quiet = Cli_common.quiet "Suppress per-cell progress lines."

let progress_flag =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a rich progress line to stderr after each completed cell: \
           done/total, cell key, throughput (cells/s) and ETA.  Off by \
           default, so default output stays byte-stable.")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Record campaign telemetry: a per-worker wall-clock profile \
           (printed after the run) and a per-cell telemetry snapshot \
           embedded in the report's DDCR cells (behind the optional \
           'telemetry' key; fingerprints are unaffected).")

let profile_trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-trace" ] ~docv:"FILE"
        ~doc:
          "Write the wall-clock worker timeline as Chrome trace-event JSON \
           (Perfetto-loadable) to $(docv); implies $(b,--profile).")

let spec_of name spec_file =
  match (spec_file, name) with
  | Some f, _ -> Spec.load_file f
  | None, Some n -> (
    match Spec.find_builtin n with
    | Some s -> Ok s
    | None ->
      Error
        (Printf.sprintf "unknown builtin campaign %S (try `ddcr_campaign list`)"
           n))
  | None, None -> Error "pass a builtin campaign name or --spec FILE"

(* Builds the runner options and, when profiling, the telemetry
   recorder fed the pool's worker timings.  The rich --progress line
   and the profile recorder share one wall-clock origin so throughput,
   ETA and the worker timeline agree. *)
let options_of spec ~jobs ~out ~resume ~max_cells ~quiet ~rich_progress
    ~profile =
  let out =
    match out with
    | Some o -> o
    | None -> Printf.sprintf "BENCH_%s.json" spec.Spec.name
  in
  let* () = Cli_common.check_out_file ~flag:"-o" (Some out) in
  let t0 = Unix.gettimeofday () in
  let progress =
    if rich_progress then
      Some
        (fun ~done_ ~total ~key ~elapsed_s:_ ->
          let dt = Unix.gettimeofday () -. t0 in
          let rate = if dt > 0. then float_of_int done_ /. dt else 0. in
          let eta =
            if rate > 0. then float_of_int (total - done_) /. rate else 0.
          in
          Printf.eprintf "progress %d/%d %s  %.1f cells/s  ETA %.0f s\n%!"
            done_ total key rate eta)
    else if quiet then None
    else
      Some
        (fun ~done_ ~total ~key ~elapsed_s ->
          Printf.eprintf "[%d/%d] %s (%.1f ms)\n%!" done_ total key
            (elapsed_s *. 1000.))
  in
  let recorder = if profile then Some (Recorder.create ~wall0:t0 ()) else None in
  let options = Runner.default_options ~out in
  Ok
    ( {
        options with
        Runner.jobs = (if jobs <= 0 then Pool.default_jobs () else jobs);
        resume;
        max_cells;
        progress;
        telemetry = profile;
        on_cell =
          Option.fold ~none:options.Runner.on_cell ~some:Recorder.worker_cell
            recorder;
      },
      recorder )

(* Printed after a profiled campaign completes; the optional trace file
   holds the wall-clock worker timeline for Perfetto. *)
let emit_profile recorder profile_trace =
  match recorder with
  | None -> Ok 0
  | Some r -> (
    Format.printf "campaign profile:@.";
    print_string (Registry.render (Recorder.snapshot r));
    match profile_trace with
    | None -> Ok 0
    | Some path -> (
      match Rtnet_util.Json.to_file path (Recorder.trace_json r) with
      | exception Sys_error e ->
        Error ("cannot write worker timeline: " ^ e)
      | () ->
        Format.printf "worker timeline written to %s@." path;
        Ok 0))

let runner_error = Result.map_error (Format.asprintf "%a" Runner.pp_error)

(* -------------------- run -------------------- *)

let run_campaign name spec_file jobs out resume max_cells quiet rich_progress
    profile profile_trace =
  let* spec = spec_of name spec_file in
  let* () = Cli_common.check_out_file ~flag:"--profile-trace" profile_trace in
  let* options, recorder =
    options_of spec ~jobs ~out ~resume ~max_cells ~quiet ~rich_progress
      ~profile:(profile || profile_trace <> None)
  in
  let* outcome = runner_error (Runner.run options spec) in
  match outcome with
  | Runner.Interrupted { completed; total } ->
    Format.eprintf
      "ddcr_campaign: interrupted after %d/%d cells; checkpoint kept — \
       re-run with --resume@."
      completed total;
    Ok 3
  | Runner.Complete report ->
    Format.printf "campaign %s: %d cells in %.2f s (%d jobs)@."
      report.Report.campaign
      (List.length report.Report.cells)
      report.Report.wall_clock_s report.Report.jobs;
    Format.printf "report      %s@." options.Runner.out;
    Format.printf "spec hash   %s@." report.Report.spec_hash;
    Format.printf "fingerprint %s@." (Report.fingerprint report);
    emit_profile recorder profile_trace

let run_cmd =
  Cli_common.cmd
    (Cmd.info "run" ~doc:"Execute a campaign and write its BENCH report")
    Term.(
      const run_campaign $ campaign_name $ spec_file $ jobs $ out $ resume
      $ max_cells $ quiet $ progress_flag $ profile $ profile_trace)

(* -------------------- compare -------------------- *)

let baseline =
  Arg.(
    required
    & opt (some file) None
    & info [ "baseline" ] ~docv:"FILE" ~doc:"Stored baseline report to gate on.")

let current =
  Arg.(
    value
    & opt (some file) None
    & info [ "current" ] ~docv:"FILE"
        ~doc:
          "Compare a stored report instead of running the campaign fresh \
           (CAMPAIGN/--spec then unnecessary).")

let tol_miss_ratio =
  Arg.(
    value & opt float 0.
    & info [ "tol-miss-ratio" ] ~docv:"EPS"
        ~doc:"Allowed absolute increase in per-cell deadline-miss ratio.")

let tol_latency_rel =
  Arg.(
    value & opt float 0.
    & info [ "tol-latency" ] ~docv:"FRACTION"
        ~doc:"Allowed relative increase in worst/mean latency.")

let tol_delivered =
  Arg.(
    value & opt int 0
    & info [ "tol-delivered" ] ~docv:"N"
        ~doc:"Allowed absolute drop in per-cell deliveries.")

let compare_campaign name spec_file jobs out resume max_cells quiet
    rich_progress baseline current tol_miss_ratio tol_latency_rel
    tol_delivered =
  let tolerance =
    { Report.tol_miss_ratio; tol_latency_rel; tol_delivered }
  in
  let fresh () =
    let* spec = spec_of name spec_file in
    let out =
      match out with
      | Some o -> Some o
      | None -> Some (Printf.sprintf "BENCH_%s.current.json" spec.Spec.name)
    in
    let* options, _ =
      options_of spec ~jobs ~out ~resume ~max_cells ~quiet ~rich_progress
        ~profile:false
    in
    let* outcome = runner_error (Runner.run options spec) in
    match outcome with
    | Runner.Interrupted _ -> Error "campaign interrupted; nothing to compare"
    | Runner.Complete report -> Ok report
  in
  let* base = Report.load ~path:baseline in
  let* cur =
    match current with Some path -> Report.load ~path | None -> fresh ()
  in
  let* regs = Report.compare_reports ~tolerance ~baseline:base ~current:cur in
  if regs = [] then begin
    Format.printf "no regression: %d cells within tolerance of %s@."
      (List.length cur.Report.cells)
      baseline;
    Ok 0
  end
  else begin
    Format.eprintf "ddcr_campaign: %d regression(s) vs %s@."
      (List.length regs) baseline;
    List.iter (fun r -> Format.eprintf "  %a@." Report.pp_regression r) regs;
    Ok 1
  end

let compare_cmd =
  Cli_common.cmd
    (Cmd.info "compare"
       ~doc:
         "Run (or load) a campaign and diff it against a stored baseline; \
          exit 1 on regression")
    Term.(
      const compare_campaign $ campaign_name $ spec_file $ jobs $ out $ resume
      $ max_cells $ quiet $ progress_flag $ baseline $ current $ tol_miss_ratio
      $ tol_latency_rel $ tol_delivered)

(* -------------------- list -------------------- *)

let list_campaigns () =
  List.iter
    (fun (name, spec) ->
      Format.printf "%-12s %3d cells  %d protocols x %d scenarios x %d \
                     variants x %d replicates, %d ms@."
        name (Spec.cell_count spec)
        (List.length spec.Spec.protocols)
        (List.length spec.Spec.scenarios)
        (List.length spec.Spec.variants)
        spec.Spec.replicates spec.Spec.horizon_ms)
    Spec.builtins;
  Ok 0

let list_cmd =
  Cli_common.cmd
    (Cmd.info "list" ~doc:"List the builtin campaigns")
    Term.(const list_campaigns $ const ())

(* -------------------- group -------------------- *)

let cmd =
  Cmd.group
    (Cmd.info "ddcr_campaign"
       ~doc:
         "Parallel experiment-campaign runner with JSON results and a \
          metric-regression gate")
    [ run_cmd; compare_cmd; list_cmd ]
