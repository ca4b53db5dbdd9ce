(* ddcr_model: explicit-state model checking of the DDCR automaton.

   The model (rtnet.model) runs the simulator's own slot
   (Ddcr.Slot.step) on copies of the whole system state — replicated
   Ddcr.Step states, EDF queues, channel, divergence detection and
   recovery — and explores it breadth-first over every schedule of at
   most one fault action per slot (wire garble, local misperception,
   crash, revive) within a fault budget, each action handed to the slot
   as a one-slot plan of scheduled fault atoms.  Invariants checked on
   every reached state: protocol safety (which includes the slot's own
   lockstep assertion among synced replicas), per-replica
   well-formedness (slot accounting), resync-by-the-next-tree-epoch-
   boundary, and unexcused deadline misses.

   `explore` prints state-space statistics; `check` additionally fails
   (exit 1) on any reachable violation or a non-exhaustive run;
   `export-repro` turns the first counterexample trail into a
   self-contained chaos replay artifact (scheduled fault-plan atoms,
   zero random draws) that `ddcr_chaos replay` re-executes
   byte-identically.

   Exit codes: 0 success (check: proven clean within bounds;
   export-repro: artifact written); 1 expectation failed (check:
   violation or truncation; export-repro: no violation found);
   2 invalid configuration (including --horizon-ms < 1, --depth < 0,
   --budget < 0 or --max-states < 1) or I/O error.

   Examples:
     ddcr_model explore -s uniform -n 2 --horizon-ms 1 --depth 12
     ddcr_model check -s uniform -n 2 --horizon-ms 1 --depth 12 --budget 2
     ddcr_model export-repro -s uniform -n 2 --params broken.json -o repro.json *)

module Spec = Rtnet_campaign.Spec
module Instance = Rtnet_workload.Instance
module Ddcr_params = Rtnet_core.Ddcr_params
module Fault_plan = Rtnet_channel.Fault_plan
module Oracle = Rtnet_analysis.Oracle
module Plain = Rtnet_chaos.Plain
module Subject = Rtnet_chaos.Subject
module Repro = Rtnet_chaos.Repro
module Transition = Rtnet_model.Transition
module Explore = Rtnet_model.Explore
module Witness = Rtnet_model.Witness

open Cmdliner

let ( let* ) = Result.bind

(* -------------------- shared terms -------------------- *)

let depth_t =
  Arg.(
    value
    & opt int Explore.default_config.Explore.c_depth
    & info [ "depth" ] ~docv:"SLOTS"
        ~doc:"Exploration bound: maximum contention slots along any path.")

let budget_t =
  Arg.(
    value
    & opt int Explore.default_config.Explore.c_budget
    & info [ "budget" ] ~docv:"N"
        ~doc:"Fault budget: maximum fault actions along any path.")

let max_states_t =
  Arg.(
    value
    & opt int Explore.default_config.Explore.c_max_states
    & info [ "max-states" ] ~docv:"N"
        ~doc:"Safety valve on distinct states; exceeding it truncates the \
              exploration (reported, and fatal for $(b,check)).")

let quiet = Cli_common.quiet "Suppress the trail dump."

(* A checked configuration: the transition system and what the replay
   artifact needs to re-execute it, with the exploration bounds. *)
type model = {
  sys : Transition.sys;
  source : Witness.source;
  depth : int;
  budget : int;
  max_states : int;
}

(* The model must explore exactly the workload the replay artifact will
   re-execute: same scenario instance, same arrival trace (trace seed),
   same horizon, same (possibly overridden) parameters.  Impossible
   exploration bounds are rejected here, before anything runs. *)
let build scenario horizon_ms seed override depth budget max_states =
  let* horizon = Cli_common.horizon_of horizon_ms in
  let at_least name least v =
    if v < least then
      Error (Printf.sprintf "--%s must be at least %d (got %d)" name least v)
    else Ok ()
  in
  let* () = at_least "depth" 0 depth in
  let* () = at_least "budget" 0 budget in
  let* () = at_least "max-states" 1 max_states in
  let* override = override in
  let* inst = Spec.instance_result scenario in
  let trace = Instance.trace inst ~seed ~horizon in
  let params =
    match override with Some p -> p | None -> Ddcr_params.default inst
  in
  match Transition.make ~params ~inst ~trace ~horizon with
  | exception Invalid_argument e -> Error e
  | sys ->
    let source =
      {
        Witness.w_scenario = scenario;
        w_horizon_ms = horizon_ms;
        w_params = override;
        w_trace_seed = seed;
      }
    in
    Ok { sys; source; depth; budget; max_states }

let model_t =
  Term.(
    const build $ Cli_common.scenario $ Cli_common.horizon_ms ()
    $ Cli_common.seed
    $ Cli_common.params_file
        "Override the scenario's protocol parameters with a Ddcr_params \
         JSON file (as embedded in v2 replay artifacts)."
    $ depth_t $ budget_t $ max_states_t)

let explore ?(max_violations = 1) m =
  let out =
    Explore.run
      ~config:
        {
          Explore.c_depth = m.depth;
          c_budget = m.budget;
          c_max_states = m.max_states;
          c_max_violations = max_violations;
        }
      m.sys ~budget:m.budget
  in
  Format.printf
    "model: %d state(s) explored, %d transition(s), depth %d/%d, budget %d%s@."
    out.Explore.o_explored out.Explore.o_transitions
    out.Explore.o_depth_reached m.depth m.budget
    (if out.Explore.o_truncated then " [TRUNCATED: state cap hit]" else "");
  out

let print_finding ~quiet f =
  Format.printf "violation: %s@."
    (Transition.describe_violation f.Explore.f_violation);
  if not quiet then
    List.iter
      (fun (t, a) ->
        if a <> Transition.No_fault then
          Format.printf "  t=%-8d %s@." t (Transition.action_label a))
      f.Explore.f_trail

(* -------------------- explore -------------------- *)

let run_explore model quiet =
  let* m = model in
  let out = explore ~max_violations:8 m in
  List.iter (print_finding ~quiet) out.Explore.o_findings;
  Ok 0

let explore_cmd =
  Cli_common.cmd
    (Cmd.info "explore"
       ~doc:
         "Enumerate the bounded state space and report statistics and any \
          violations (informational: always exits 0 on a valid \
          configuration)")
    Term.(const run_explore $ model_t $ quiet)

(* -------------------- check -------------------- *)

let run_check model quiet =
  let* m = model in
  let out = explore m in
  match out.Explore.o_findings with
  | f :: _ ->
    print_finding ~quiet f;
    Ok 1
  | [] when out.Explore.o_truncated ->
    Format.eprintf
      "ddcr_model: exploration truncated at %d states — nothing proven; \
       raise --max-states or lower --depth/--budget@."
      m.max_states;
    Ok 1
  | [] ->
    Format.printf
      "check: no violation reachable within %d slot(s) and %d fault \
       action(s)@."
      m.depth m.budget;
    Ok 0

let check_cmd =
  Cli_common.cmd
    (Cmd.info "check"
       ~doc:
         "Exhaustively verify the invariants up to the depth and fault \
          budget; exit 1 on any reachable violation or a truncated \
          (non-exhaustive) exploration")
    Term.(const run_check $ model_t $ quiet)

(* -------------------- export-repro -------------------- *)

let run_export model quiet out =
  let* () = Cli_common.check_out_file ~flag:"-o" (Some out) in
  let* m = model in
  let res = explore m in
  match res.Explore.o_findings with
  | [] ->
    Format.eprintf
      "ddcr_model: no violation reachable within %d slot(s) and %d fault \
       action(s) — nothing to export@."
      m.depth m.budget;
    Ok 1
  | f :: _ -> (
    print_finding ~quiet f;
    let repro, report = Witness.export m.source f in
    match Repro.save (module Plain) ~path:out repro with
    | exception Sys_error e ->
      Error (Printf.sprintf "cannot write %s: %s" out e)
    | () ->
      Format.printf "export: plan [%s], simulator verdict %s, written to %s@."
        (Fault_plan.label repro.Repro.re_candidate.Plain.cd_plan)
        (Oracle.label report.Subject.rp_verdict)
        out;
      Ok 0)

let export_cmd =
  Cli_common.cmd
    (Cmd.info "export-repro"
       ~doc:
         "Find a counterexample and freeze its fault schedule as a \
          deterministic chaos replay artifact (scheduled atoms only, zero \
          random draws), re-executed through the real simulator")
    Term.(
      const run_export $ model_t $ quiet
      $ Cli_common.out_required "Where to write the replay artifact.")

(* -------------------- group -------------------- *)

let cmd =
  Cmd.group
    (Cmd.info "ddcr_model"
       ~doc:
         "Explicit-state model checking of the DDCR automaton with \
          chaos-replayable counterexamples")
    [ explore_cmd; check_cmd; export_cmd ]
