(* ddcr_topo: multi-hop federated DDCR topologies.

   A topology spec (JSON) declares broadcast segments, store-and-forward
   bridge stations joining them into a DAG, and end-to-end flows.
   `check` decomposes every flow's deadline into per-hop budgets
   (rtnet.topology Admit), prices each hop with the Section 4.3 B_DDCR
   bound, runs the NP-EDF demand-bound oracle on every bridge queue,
   and reports the admission verdict.  `run` simulates the whole
   federation — segments sharded across OCaml domains wavefront by
   wavefront — and classifies every end-to-end chain: in time, missed
   (attributed to the hop that overran its budget), or in flight past
   the horizon.  `dimension` compares both decomposition policies side
   by side.

   Both check and run understand per-segment fault plans — embedded in
   the spec (a segment's "fault_plan" key) or overlaid from a separate
   file (--fault-plan, a JSON object mapping segment names to plans).
   A crash window naming a bridge station takes the bridge down: check
   prices the worst window fault-aware, run holds / drains its
   store-and-forward queue and reports Degraded/Shed/Restored events,
   bridge drops and fault-attributed misses.

   Exit codes: 0 success (check: admitted; run: zero unexcused
   end-to-end misses, sheds or drops; dimension: some policy admits);
   1 expectation failed (rejected / misses, sheds or drops observed /
   no policy admits); 2 malformed spec, malformed fault plan or I/O
   error.

   Examples:
     ddcr_topo check topo.json
     ddcr_topo run topo.json --domains 4 --horizon-ms 5 --trace-out t.json
     ddcr_topo run topo.json --fault-plan faults.json
     ddcr_topo dimension topo.json *)

module Topo = Rtnet_topology.Topo
module Admit = Rtnet_topology.Admit
module Bridge = Rtnet_topology.Bridge
module Driver = Rtnet_topology.Driver
module Decompose = Rtnet_core.Decompose
module Feasibility = Rtnet_core.Feasibility
module Fault_plan = Rtnet_channel.Fault_plan
module Run = Rtnet_stats.Run
module Sink = Rtnet_telemetry.Sink
module Recorder = Rtnet_telemetry.Recorder
module Registry = Rtnet_telemetry.Registry
module Headroom = Rtnet_telemetry.Headroom
module Trace_event = Rtnet_telemetry.Trace_event
module Flight = Rtnet_obs.Flight
module Causal = Rtnet_obs.Causal
module Postmortem = Rtnet_obs.Postmortem
module Prng = Rtnet_util.Prng
module Json = Rtnet_util.Json

open Cmdliner

let ( let* ) = Result.bind

let spec_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TOPO.json" ~doc:"Topology spec file.")

let policy_t =
  let policy_conv =
    Arg.enum
      [
        ("proportional", Decompose.Proportional);
        ("slack-weighted", Decompose.Slack_weighted);
      ]
  in
  Arg.(
    value
    & opt policy_conv Decompose.Proportional
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Deadline decomposition policy: proportional (whole budget split \
           in proportion to the per-hop bounds) or slack-weighted (each hop \
           gets its bound plus an equal share of the slack).")

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Shard each wavefront level across up to N OCaml domains (the \
           result is fingerprint-identical for any N).")

let fault_plan_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "fault-plan" ] ~docv:"FAULTS.json"
        ~doc:
          "Overlay per-segment fault plans: a JSON object mapping segment \
           names to fault-plan specs (garble / misperception / crashes).  A \
           crash window naming a bridge station models that bridge going \
           down.")

(* The spec at [path], overlaid with the plans of [faults]:
   { "<segment>": <fault plan spec>, ... }. *)
let load_spec ?faults path =
  let* topo = Topo.load_file path in
  match faults with
  | None -> Ok topo
  | Some fpath ->
    Json.load_file fpath (function
      | Json.Obj _ as j ->
        let* plans =
          Json.obj_of
            (fun seg pj ->
              Result.map_error
                (Printf.sprintf "segment %s: %s" seg)
                (Fault_plan.spec_of_json pj))
            j
        in
        Topo.with_faults topo plans
      | _ -> Error "expected an object of segment plans")

let elaborated ?faults ~policy path =
  let* topo = load_spec ?faults path in
  Rtnet_util.Io.named path (Admit.elaborate ~policy topo)

(* -------------------- check -------------------- *)

let run_check path policy faults =
  let* e = elaborated ?faults ~policy path in
  Format.printf "%a@." Admit.pp_report e;
  let bridges = Bridge.check ~fault_aware:true e in
  List.iter (fun v -> Format.printf "  %a@." Bridge.pp_verdict v) bridges;
  if e.Admit.e_admitted && List.for_all (fun v -> v.Bridge.bv_feasible) bridges
  then begin
    Format.printf
      "check: ADMITTED — every hop budget covers its B_DDCR and every \
       bridge queue is NP-EDF schedulable@.";
    Ok 0
  end
  else begin
    Format.printf "check: REJECTED@.";
    Ok 1
  end

let check_cmd =
  Cli_common.cmd
    (Cmd.info "check"
       ~doc:
         "Admission-check a topology: decompose every flow deadline into \
          per-hop budgets, test B_DDCR <= budget on every hop and NP-EDF \
          schedulability on every bridge queue, fault-aware of the worst \
          scheduled bridge crash window (exit 0 iff admitted)")
    Term.(const run_check $ spec_file $ policy_t $ fault_plan_t)

(* -------------------- run -------------------- *)

(* Same analytic bounds ddcr_sim annotates its recorder with, per
   segment of the elaborated federation: the admitted hop classes
   priced by the Section 4.3 feasibility checker. *)
let seg_bounds e name =
  Feasibility.headroom_bounds
    (Feasibility.check (Admit.params_of e name) (Admit.instance_of e name))

let run_run path policy domains horizon_ms seed trace_out faults telemetry
    headroom postmortem_out =
  let* () = Cli_common.check_out_file ~flag:"--trace-out" trace_out in
  let* () = Cli_common.check_out_file ~flag:"--postmortem-out" postmortem_out in
  let* e = elaborated ?faults ~policy path in
  let* horizon = Cli_common.horizon_of horizon_ms in
  let want_recorder = trace_out <> None || telemetry || headroom in
  let want_flight = postmortem_out <> None in
  let recorders = ref [] in
  let flights = ref [] in
  let sink_for =
    if not (want_recorder || want_flight) then None
    else
      Some
        (fun ~index ~segment ->
          let rec_sink =
            if not want_recorder then Sink.null
            else begin
              let r =
                Recorder.create ~bounds:(seg_bounds e segment)
                  ~pid:(2 * index)
                  ~process_name:
                    (Printf.sprintf "segment %s (bit-times)" segment)
                  ()
              in
              recorders := (index, segment, r) :: !recorders;
              Recorder.sink r
            end
          in
          let fl_sink =
            if not want_flight then Sink.null
            else begin
              let f = Flight.create ~segment () in
              flights := (index, f) :: !flights;
              Flight.sink f
            end
          in
          Sink.tee rec_sink fl_sink)
  in
  let* res = Driver.run_seeded ?sink_for ~domains e ~seed ~horizon in
  if not e.Admit.e_admitted then
    Format.printf
      "note: topology NOT admitted — running anyway to observe the \
       predicted misses@.";
  List.iter
    (fun ev -> Format.printf "%a@." Driver.pp_event ev)
    res.Driver.r_events;
  Format.printf "%a@." Driver.pp_verdict res.Driver.r_verdict;
  List.iter
    (fun sr ->
      let m = Run.metrics sr.Driver.sr_outcome in
      Format.printf "  segment %-10s %a@." sr.Driver.sr_segment
        Run.pp_metrics m)
    res.Driver.r_segments;
  Format.printf "merged: %a@." Run.pp_metrics res.Driver.r_metrics;
  Format.printf "fingerprint: %s@." res.Driver.r_fingerprint;
  let ordered_recorders = List.sort compare !recorders in
  if telemetry || headroom then
    List.iter
      (fun (_, segment, r) ->
        Format.printf "segment %s:@." segment;
        if telemetry then print_string (Registry.render (Recorder.snapshot r));
        Format.printf "  bound headroom (bit-times):@.";
        print_string (Headroom.render (Recorder.headroom_table r)))
      ordered_recorders;
  (match trace_out with
  | None -> ()
  | Some out ->
    (* Causal flows ride in their own buffer, merged after the
       per-segment timelines so the spans they bind to come first. *)
    let flows = Trace_event.create () in
    let seg_idx =
      let tbl = Hashtbl.create 8 in
      List.iteri
        (fun i (s : Topo.segment) -> Hashtbl.replace tbl s.Topo.sg_name i)
        e.Admit.e_topo.Topo.tp_segments;
      fun ~segment -> 2 * Hashtbl.find tbl segment
    in
    let stitched =
      Causal.stitch ~into:flows ~seg_pid:seg_idx ~chains:res.Driver.r_chains
    in
    let traces =
      List.map (fun (_, _, r) -> Recorder.trace_json r) ordered_recorders
      @ [ Trace_event.to_json flows ]
    in
    let oc = open_out out in
    output_string oc (Json.to_string (Trace_event.merge_json traces));
    output_char oc '\n';
    close_out oc;
    Format.printf "trace: %s (%d cross-segment chains stitched)@." out
      stitched);
  (match postmortem_out with
  | None -> ()
  | Some out -> (
    match Postmortem.trigger_of_result res with
    | None -> Format.printf "postmortem: clean run, nothing written@."
    | Some trigger ->
      let pm =
        Postmortem.build ~trigger ~topology:e.Admit.e_topo.Topo.tp_name
          ~seed ~fault_seed:(Prng.derive seed 0xFA) ~horizon ~result:res
          ~flights:(List.map snd (List.sort compare !flights))
          ()
      in
      Postmortem.save ~path:out pm;
      Format.printf "postmortem: %s (trigger: %a)@." out
        Postmortem.pp_trigger trigger));
  let v = res.Driver.r_verdict in
  Ok
    (if v.Driver.v_misses = [] && v.Driver.v_shed = 0
        && v.Driver.v_bridge_drops = []
     then 0
     else 1)

let run_cmd =
  Cli_common.cmd
    (Cmd.info "run"
       ~doc:
         "Simulate the federated topology end to end — fault plans, bridge \
          failover and degraded-mode shedding included — and report \
          per-chain verdicts (exit 0 iff no unexcused end-to-end miss, \
          shed or bridge drop)")
    Term.(
      const run_run $ spec_file $ policy_t $ domains_t
      $ Cli_common.horizon_ms () $ Cli_common.seed $ Cli_common.trace_out
      $ fault_plan_t $ Cli_common.telemetry $ Cli_common.headroom
      $ Cli_common.postmortem_out)

(* -------------------- dimension -------------------- *)

let run_dimension path =
  let* topo = load_spec path in
  let* admits =
    List.fold_left
      (fun acc policy ->
        let* acc = acc in
        let* e = Rtnet_util.Io.named path (Admit.elaborate ~policy topo) in
        Format.printf "%a@." Admit.pp_report e;
        Ok (e.Admit.e_admitted :: acc))
      (Ok [])
      [ Decompose.Proportional; Decompose.Slack_weighted ]
  in
  Ok (if List.mem true admits then 0 else 1)

let dimension_cmd =
  Cli_common.cmd
    (Cmd.info "dimension"
       ~doc:
         "Print the per-hop budget tables of both decomposition policies \
          side by side (exit 0 iff at least one admits)")
    Term.(const run_dimension $ spec_file)

(* -------------------- group -------------------- *)

let cmd =
  Cmd.group
    (Cmd.info "ddcr_topo"
       ~doc:
         "Multi-hop federated DDCR topologies: end-to-end admission and \
          federated simulation")
    [ check_cmd; run_cmd; dimension_cmd ]
