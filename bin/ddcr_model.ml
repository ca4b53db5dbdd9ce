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
module Json = Rtnet_util.Json
module Fault_plan = Rtnet_channel.Fault_plan
module Oracle = Rtnet_analysis.Oracle
module Plain = Rtnet_chaos.Plain
module Subject = Rtnet_chaos.Subject
module Repro = Rtnet_chaos.Repro
module Transition = Rtnet_model.Transition
module Explore = Rtnet_model.Explore
module Witness = Rtnet_model.Witness

open Cmdliner

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

let params_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "params" ] ~docv:"FILE"
        ~doc:"Override the scenario's protocol parameters with a \
              Ddcr_params JSON file (as embedded in v2 replay artifacts).")

let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the trail dump.")

let load_params = function
  | None -> Ok None
  | Some path -> (
    match Json.parse_file path with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> (
      match Ddcr_params.of_json j with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok p -> Ok (Some p)))

(* The model must explore exactly the workload the replay artifact will
   re-execute: same scenario instance, same arrival trace (trace seed),
   same horizon, same (possibly overridden) parameters.  Impossible
   exploration bounds are rejected here, before anything runs. *)
let build ~scenario ~size ~load ~deadline_windows ~horizon_ms ~seed ~params_file
    ~depth ~budget ~max_states =
  let ( let* ) = Result.bind in
  let horizon = Cli_common.horizon_of horizon_ms in
  let at_least name least v =
    if v < least then
      Error (Printf.sprintf "--%s must be at least %d (got %d)" name least v)
    else Ok ()
  in
  let* () = at_least "depth" 0 depth in
  let* () = at_least "budget" 0 budget in
  let* () = at_least "max-states" 1 max_states in
  let* override = load_params params_file in
  let sc =
    {
      Spec.sc_kind = scenario;
      sc_size = size;
      sc_load = load;
      sc_deadline_windows = deadline_windows;
      sc_fanout = 1;
    }
  in
  let* inst = Spec.instance_result sc in
  let trace = Instance.trace inst ~seed ~horizon in
  let params =
    match override with Some p -> p | None -> Ddcr_params.default inst
  in
  match Transition.make ~params ~inst ~trace ~horizon with
  | exception Invalid_argument e -> Error e
  | sys ->
    Ok
      ( sys,
        {
          Witness.w_scenario = sc;
          w_horizon_ms = horizon_ms;
          w_params = override;
          w_trace_seed = seed;
        } )

let explore_with ~depth ~budget ~max_states ?(max_violations = 1) sys =
  Explore.run
    ~config:
      {
        Explore.c_depth = depth;
        c_budget = budget;
        c_max_states = max_states;
        c_max_violations = max_violations;
      }
    sys ~budget

let print_outcome ~depth ~budget out =
  Format.printf
    "model: %d state(s) explored, %d transition(s), depth %d/%d, budget %d%s@."
    out.Explore.o_explored out.Explore.o_transitions
    out.Explore.o_depth_reached depth budget
    (if out.Explore.o_truncated then " [TRUNCATED: state cap hit]" else "")

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

let run_explore scenario size load deadline_windows horizon_ms seed params_file
    depth budget max_states quiet =
  match
    build ~scenario ~size ~load ~deadline_windows ~horizon_ms ~seed
      ~params_file ~depth ~budget ~max_states
  with
  | Error e ->
    Format.eprintf "ddcr_model: %s@." e;
    2
  | Ok (sys, _) ->
    let out = explore_with ~depth ~budget ~max_states ~max_violations:8 sys in
    print_outcome ~depth ~budget out;
    List.iter (print_finding ~quiet) out.Explore.o_findings;
    0

let explore_cmd =
  let term =
    Term.(
      const run_explore $ Cli_common.scenario $ Cli_common.size
      $ Cli_common.load $ Cli_common.deadline_windows $ Cli_common.horizon_ms
      $ Cli_common.seed $ params_file $ depth_t $ budget_t $ max_states_t
      $ quiet)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Enumerate the bounded state space and report statistics and any \
          violations (informational: always exits 0 on a valid \
          configuration)")
    term

(* -------------------- check -------------------- *)

let run_check scenario size load deadline_windows horizon_ms seed params_file
    depth budget max_states quiet =
  match
    build ~scenario ~size ~load ~deadline_windows ~horizon_ms ~seed
      ~params_file ~depth ~budget ~max_states
  with
  | Error e ->
    Format.eprintf "ddcr_model: %s@." e;
    2
  | Ok (sys, _) -> (
    let out = explore_with ~depth ~budget ~max_states sys in
    print_outcome ~depth ~budget out;
    match out.Explore.o_findings with
    | f :: _ ->
      print_finding ~quiet f;
      1
    | [] ->
      if out.Explore.o_truncated then begin
        Format.eprintf
          "ddcr_model: exploration truncated at %d states — nothing proven; \
           raise --max-states or lower --depth/--budget@."
          max_states;
        1
      end
      else begin
        Format.printf
          "check: no violation reachable within %d slot(s) and %d fault \
           action(s)@."
          depth budget;
        0
      end)

let check_cmd =
  let term =
    Term.(
      const run_check $ Cli_common.scenario $ Cli_common.size $ Cli_common.load
      $ Cli_common.deadline_windows $ Cli_common.horizon_ms $ Cli_common.seed
      $ params_file $ depth_t $ budget_t $ max_states_t $ quiet)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively verify the invariants up to the depth and fault \
          budget; exit 1 on any reachable violation or a truncated \
          (non-exhaustive) exploration")
    term

(* -------------------- export-repro -------------------- *)

let out_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Where to write the replay artifact.")

let run_export scenario size load deadline_windows horizon_ms seed params_file
    depth budget max_states quiet out =
  Cli_common.require [ Cli_common.check_out_file ~flag:"-o" (Some out) ];
  match
    build ~scenario ~size ~load ~deadline_windows ~horizon_ms ~seed
      ~params_file ~depth ~budget ~max_states
  with
  | Error e ->
    Format.eprintf "ddcr_model: %s@." e;
    2
  | Ok (sys, src) -> (
    let res = explore_with ~depth ~budget ~max_states sys in
    print_outcome ~depth ~budget res;
    match res.Explore.o_findings with
    | [] ->
      Format.eprintf
        "ddcr_model: no violation reachable within %d slot(s) and %d fault \
         action(s) — nothing to export@."
        depth budget;
      1
    | f :: _ -> (
      print_finding ~quiet f;
      let repro, report = Witness.export src f in
      match Repro.save (module Plain) ~path:out repro with
      | () ->
        Format.printf
          "export: plan [%s], simulator verdict %s, written to %s@."
          (Fault_plan.label repro.Repro.re_candidate.Plain.cd_plan)
          (Oracle.label report.Subject.rp_verdict)
          out;
        0
      | exception Sys_error e ->
        Format.eprintf "ddcr_model: cannot write %s: %s@." out e;
        2))

let export_cmd =
  let term =
    Term.(
      const run_export $ Cli_common.scenario $ Cli_common.size
      $ Cli_common.load $ Cli_common.deadline_windows $ Cli_common.horizon_ms
      $ Cli_common.seed $ params_file $ depth_t $ budget_t $ max_states_t
      $ quiet $ out_t)
  in
  Cmd.v
    (Cmd.info "export-repro"
       ~doc:
         "Find a counterexample and freeze its fault schedule as a \
          deterministic chaos replay artifact (scheduled atoms only, zero \
          random draws), re-executed through the real simulator")
    term

(* -------------------- group -------------------- *)

let cmd =
  Cmd.group
    (Cmd.info "ddcr_model"
       ~doc:
         "Explicit-state model checking of the DDCR automaton with \
          chaos-replayable counterexamples")
    [ explore_cmd; check_cmd; export_cmd ]

let () = exit (Cmd.eval' cmd)
