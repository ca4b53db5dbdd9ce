(* ddcr_lint: the static-analysis gate of rtnet.analysis.

   Lints protocol configurations against the Section 4.3 feasibility
   conditions, invariant-checks simulated traces against the paper's
   proof obligations, and cross-validates the tree-search analysis by
   bounded exhaustive enumeration.  Exits non-zero iff any pass emits
   an Error diagnostic — the contract the @lint alias and `make check`
   rely on.

   Examples:
     ddcr_lint -s videoconference -n 8
     ddcr_lint --all-scenarios --trace --bounded
     ddcr_lint -s trading -n 4 --scale-windows 0.05       # seeded overload
     ddcr_lint --dump-trace trace.txt -s trading -n 4
     ddcr_lint --check-trace trace.txt *)

module Instance = Rtnet_workload.Instance
module Scenarios = Rtnet_workload.Scenarios
module Ddcr = Rtnet_core.Ddcr
module Ddcr_trace = Rtnet_core.Ddcr_trace
module Message = Rtnet_workload.Message
module Diagnostic = Rtnet_analysis.Diagnostic
module Config_lint = Rtnet_analysis.Config_lint
module Trace_check = Rtnet_analysis.Trace_check
module Bounded_check = Rtnet_analysis.Bounded_check
module Trace_io = Rtnet_analysis.Trace_io

open Cmdliner

let ( let* ) = Result.bind

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Treat B_DDCR feasibility violations as errors even when the \
           centralized NP-EDF oracle accepts the workload.")

let with_trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Also simulate each linted scenario and run the trace invariant \
           checker over the emitted events.")

let bounded =
  Arg.(
    value & flag
    & info [ "bounded" ]
        ~doc:
          "Run the bounded exhaustive checker: enumerate all contender \
           subsets on small trees and cross-validate tree searches against \
           the xi/zeta closed forms.")

let max_m =
  Arg.(
    value & opt int 3
    & info [ "max-m" ] ~docv:"M"
        ~doc:"Largest branching degree for the bounded checker.")

let max_leaves =
  Arg.(
    value & opt int 9
    & info [ "max-leaves" ] ~docv:"Q"
        ~doc:"Largest leaf count for the bounded checker.")

let all_scenarios =
  Arg.(
    value & flag
    & info [ "all-scenarios" ]
        ~doc:"Lint every shipped scenario (Scenarios.all) instead of one.")

let check_trace_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-trace" ] ~docv:"FILE"
        ~doc:
          "Parse a dumped trace fixture and run the invariant checker over \
           it (no simulation).")

let check_perfetto_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-perfetto" ] ~docv:"FILE"
        ~doc:
          "Validate a Chrome trace-event JSON file written by ddcr_sim or \
           ddcr_topo --trace-out: the JSON must parse, spans on every \
           track must nest, no transmission span may carry negative bound \
           headroom, and every cross-segment causal flow chain must read \
           s -> t* -> f in non-decreasing timestamp order.  Exit 0 if \
           valid, 1 if not, 2 on parse failure.")

let check_repro_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-repro" ] ~docv:"FILE"
        ~doc:
          "Validate a chaos replay artifact written by ddcr_chaos (plain, \
           federated-topology or admission flavor, dispatched on the \
           version key): the schema version must match, the embedded \
           fault plan or churn stream must pass construction validation, \
           and the scenario must decode.  Exit 0 if valid, 2 if not.  The \
           artifact is not re-executed; use $(b,ddcr_chaos replay) for \
           that.")

let check_admit_trace_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-admit-trace" ] ~docv:"FILE"
        ~doc:
          "Lint an admission request trace written by ddcr_admit gen: \
           replay the churn stream through a fresh engine and report \
           CFG-ADMIT diagnostics (duplicate live flow ids are errors, \
           bindings within one frame of infeasibility are warnings).  \
           Exit 0 if clean, 1 on lint errors, 2 if the file does not \
           decode.")

let dump_trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-trace" ] ~docv:"FILE"
        ~doc:
          "Simulate the selected scenario and write its event trace (with \
           dm fields) to FILE, then exit.")

let scale_deadlines =
  Arg.(
    value & opt float 1.0
    & info [ "scale-deadlines" ] ~docv:"K"
        ~doc:"Multiply every relative deadline by K before linting.")

let scale_windows =
  Arg.(
    value & opt float 1.0
    & info [ "scale-windows" ] ~docv:"K"
        ~doc:
          "Multiply every arrival window by K before linting (K < 1 \
           increases offered load).")

let apply_scaling ~sd ~sw inst =
  let inst = if sd = 1.0 then inst else Instance.scale_deadlines inst sd in
  if sw = 1.0 then inst else Instance.scale_windows inst sw

(* Config lint, followed by a simulated, invariant-checked trace when a
   [trace_horizon] is given.  The simulation is skipped when the
   configuration itself is structurally invalid (Ddcr.run_trace would
   reject it). *)
let lint_one ~strict ~seed ~trace_horizon params inst =
  let cfg = Config_lint.check ~strict params inst in
  let structurally_broken =
    List.exists
      (fun d -> d.Diagnostic.rule_id = "CFG-PARAMS")
      (Diagnostic.errors cfg)
  in
  match trace_horizon with
  | None -> cfg
  | Some _ when structurally_broken -> cfg
  | Some horizon ->
    let workload = Instance.trace inst ~seed ~horizon in
    let monitor = Trace_check.monitor ~workload () in
    let sink = Ddcr_trace.sink (Trace_check.observe monitor) in
    let outcome = Ddcr.run_trace ~sink params inst workload ~horizon in
    cfg @ Lazy.force (Trace_check.finish_run ~outcome monitor).diagnostics

let dump ~seed ~horizon params inst path =
  let workload = Instance.trace inst ~seed ~horizon in
  let sink, finish = Ddcr_trace.collector () in
  let (_ : Rtnet_stats.Run.outcome) =
    Ddcr.run_trace ~sink params inst workload ~horizon
  in
  let deadlines = Hashtbl.create 256 in
  List.iter
    (fun m -> Hashtbl.replace deadlines m.Message.uid (Message.abs_deadline m))
    workload;
  let events = finish () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Trace_io.output ~deadline_of:(Hashtbl.find_opt deadlines) oc events);
  Format.printf "wrote %d events to %s@." (List.length events) path

(* One mode: a file check, a dump, or the scenario lint (which alone
   reads --bounded and --all-scenarios), so no flag is silently
   ignored. *)
let check_modes ~bounded ~all_scenarios modes =
  match
    List.filter_map (fun (flag, v) -> Option.map (fun _ -> flag) v) modes
  with
  | [] -> Ok ()
  | [ _ ] when not (bounded || all_scenarios) -> Ok ()
  | flags ->
    let lint flag on = if on then [ flag ] else [] in
    Error
      (Printf.sprintf "%s select different modes; give at most one"
         (String.concat ", "
            (flags @ lint "--bounded" bounded
            @ lint "--all-scenarios" all_scenarios)))

let check_admit_trace path =
  Result.map
    (fun trace ->
      let diags = Config_lint.check_admit trace in
      Format.printf "== admission trace %s (%d requests) ==@.%a" path
        (List.length trace.Rtnet_admit.Request.tr_requests)
        Diagnostic.pp_report diags;
      Diagnostic.exit_code diags)
    (Rtnet_admit.Request.load_trace ~path)

let check_repro path =
  let* j, Rtnet_chaos.Repro.Any (((module S) as subject), r) =
    Rtnet_util.Json.load_file path (fun j ->
        Result.map (fun any -> (j, any)) (Rtnet_chaos.Repro.any_of_json j))
  in
  (* Report the version the artifact DECLARES, not the current
     constant: a back-compatible v1 file must read as v1. *)
  let key = Rtnet_chaos.Repro.version_key subject in
  Format.printf "%s: %s %s, [%s]%s, verdict %s ok@." path key
    (Option.fold ~none:"?" ~some:Rtnet_util.Json.to_string
       (Rtnet_util.Json.member key j))
    (S.describe r.Rtnet_chaos.Repro.re_candidate)
    (* Only a plain artifact pinning its DDCR parameters (a model
       checker export) carries a top-level "params" key. *)
    (match Rtnet_util.Json.member "params" j with
    | Some _ -> ", params override"
    | None -> "")
    (Rtnet_analysis.Oracle.label r.Rtnet_chaos.Repro.re_verdict);
  Ok 0

let check_perfetto path =
  let* j = Rtnet_util.Json.parse_file path in
  match Rtnet_util.Io.named path (Rtnet_telemetry.Trace_event.validate j) with
  | Ok spans ->
    Format.printf
      "perfetto trace %s: %d events, nesting, headroom and causal flows ok@."
      path spans;
    Ok 0
  | Error e ->
    Format.eprintf "ddcr_lint: %s@." e;
    Ok 1

let check_trace path =
  Result.map
    (fun (events, deadlines) ->
      let diags = Trace_check.check ~deadlines events in
      Format.printf "== trace %s (%d events) ==@.%a" path (List.length events)
        Diagnostic.pp_report diags;
      Diagnostic.exit_code diags)
    (Trace_io.parse_file path)

let lint_scenarios ~scenario ~params ~seed ~horizon_ms ~strict ~with_trace
    ~bounded ~max_m ~max_leaves ~all_scenarios ~sd ~sw ~dump_trace =
  let* targets =
    if all_scenarios then Ok Scenarios.all
    else
      Result.map
        (fun inst -> [ (scenario.Rtnet_campaign.Spec.sc_kind, inst) ])
        (Rtnet_campaign.Spec.instance_result scenario)
  in
  let targets =
    List.map (fun (name, inst) -> (name, apply_scaling ~sd ~sw inst)) targets
  in
  match dump_trace with
  | Some path ->
    let name, inst = List.hd targets in
    let* horizon = Cli_common.horizon_of horizon_ms in
    let* () = Cli_common.check_out_file ~flag:"--dump-trace" (Some path) in
    Format.printf "== scenario %s ==@." name;
    dump ~seed ~horizon (params inst) inst path;
    Ok 0
  | None ->
    let* trace_horizon =
      if with_trace then
        Result.map Option.some (Cli_common.horizon_of horizon_ms)
      else Ok None
    in
    let scenario_diags =
      List.concat_map
        (fun (name, inst) ->
          let diags =
            lint_one ~strict ~seed ~trace_horizon (params inst) inst
          in
          Format.printf "== scenario %s ==@.%a@." name Diagnostic.pp_report
            diags;
          diags)
        targets
    in
    let bounded_diags =
      if bounded then begin
        let diags = Bounded_check.sweep ~max_m ~max_leaves () in
        Format.printf "== bounded exhaustive checker ==@.%a@."
          Diagnostic.pp_report diags;
        diags
      end
      else []
    in
    Ok (Diagnostic.exit_code (scenario_diags @ bounded_diags))

let main scenario params seed horizon_ms strict with_trace bounded max_m
    max_leaves all_scenarios check_trace_file check_perfetto_file
    check_repro_file check_admit_trace_file dump_trace sd sw =
  let* () =
    check_modes ~bounded ~all_scenarios
      [
        ("--check-trace", check_trace_file);
        ("--check-perfetto", check_perfetto_file);
        ("--check-repro", check_repro_file);
        ("--check-admit-trace", check_admit_trace_file);
        ("--dump-trace", dump_trace);
      ]
  in
  match
    (check_admit_trace_file, check_repro_file, check_perfetto_file,
     check_trace_file)
  with
  | Some path, _, _, _ -> check_admit_trace path
  | _, Some path, _, _ -> check_repro path
  | _, _, Some path, _ -> check_perfetto path
  | _, _, _, Some path -> check_trace path
  | None, None, None, None ->
    lint_scenarios ~scenario ~params ~seed ~horizon_ms ~strict ~with_trace
      ~bounded ~max_m ~max_leaves ~all_scenarios ~sd ~sw ~dump_trace

let cmd =
  Cli_common.cmd
    (Cmd.info "ddcr_lint"
       ~doc:
         "Static protocol linter and trace invariant checker for CSMA/DDCR")
    Term.(
      const main $ Cli_common.scenario $ Cli_common.params $ Cli_common.seed
      $ Cli_common.horizon_ms () $ strict $ with_trace $ bounded $ max_m
      $ max_leaves $ all_scenarios $ check_trace_file $ check_perfetto_file
      $ check_repro_file $ check_admit_trace_file $ dump_trace_file
      $ scale_deadlines $ scale_windows)
