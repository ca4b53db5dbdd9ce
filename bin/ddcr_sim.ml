(* ddcr_sim: simulate a scenario under a chosen MAC protocol.

   Examples:
     ddcr_sim -s trading -n 6 --protocol ddcr --burst 65536
     ddcr_sim -s uniform -n 8 --load 0.7 --protocol beb
     ddcr_sim -s atc --adversary --per-class *)

module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Arrival = Rtnet_workload.Arrival
module Run = Rtnet_stats.Run
module Summary = Rtnet_stats.Summary
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Beb = Rtnet_baselines.Csma_cd_beb
module Dcr = Rtnet_baselines.Csma_dcr
module Tdma = Rtnet_baselines.Tdma
module Np_edf = Rtnet_edf.Np_edf
module Ddcr_trace = Rtnet_core.Ddcr_trace
module Sink = Rtnet_telemetry.Sink
module Recorder = Rtnet_telemetry.Recorder
module Registry = Rtnet_telemetry.Registry
module Headroom = Rtnet_telemetry.Headroom

open Cmdliner

let protocol =
  Arg.(
    value & opt string "ddcr"
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:"One of: ddcr, beb, dcr, tdma, oracle, all.")

let per_class =
  Arg.(
    value & flag
    & info [ "per-class" ] ~doc:"Print per-class worst latencies and bounds.")

let histogram =
  Arg.(
    value & flag
    & info [ "histogram" ]
        ~doc:"Print an ASCII latency histogram per protocol.")

let trace_summary =
  Arg.(
    value & flag
    & info [ "trace-summary" ]
        ~doc:"Collect a protocol event trace (ddcr only) and print its \
              per-phase slot accounting.")

let telemetry_flag =
  Arg.(
    value & flag
    & info [ "telemetry" ]
        ~doc:
          "Record telemetry on the DDCR run and print the metrics registry \
           plus the per-class bound-headroom table.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the DDCR run's timeline as Chrome trace-event JSON \
           (Perfetto-loadable) to $(docv); implies telemetry recording.")

let headroom_flag =
  Arg.(
    value & flag
    & info [ "headroom" ]
        ~doc:
          "Print the per-class bound-headroom table (observed worst access \
           delay vs. the analytic B_DDCR/B_impl bounds) for the DDCR run.")

let run_one ~name ~inst ~params ~trace ~horizon ~seed ~sink =
  match name with
  | "ddcr" ->
    Ddcr.run_trace ~sink params inst trace ~horizon
  | "beb" -> Beb.run_trace ~seed inst trace ~horizon
  | "dcr" -> Dcr.run_trace (Dcr.of_ddcr params) inst trace ~horizon
  | "tdma" -> Tdma.run_trace inst trace ~horizon
  | "oracle" -> Np_edf.run inst.Instance.phy trace ~horizon
  | other -> failwith (Printf.sprintf "unknown protocol %S" other)

let main scenario size load deadline_windows seed horizon_ms indices burst
    theta allocation adversary protocol per_class histogram trace_summary
    telemetry trace_out headroom =
  let inst =
    Cli_common.instance_of ~scenario ~size ~load ~deadline_windows
  in
  let inst =
    if adversary then Instance.with_law inst Arrival.Greedy_burst else inst
  in
  let horizon = Cli_common.horizon_of horizon_ms in
  let trace = Instance.trace inst ~seed ~horizon in
  let params =
    Ddcr_params.with_theta
      (Ddcr_params.with_burst
         (Ddcr_params.default ~indices_per_source:indices ~allocation inst)
         burst)
      theta
  in
  Format.printf "%a@.parameters: %a@.trace: %d messages over %d ms@.@."
    Instance.pp inst Ddcr_params.pp params (List.length trace) horizon_ms;
  let names =
    if protocol = "all" then [ "ddcr"; "beb"; "dcr"; "tdma"; "oracle" ]
    else [ protocol ]
  in
  let want_telemetry = telemetry || headroom || trace_out <> None in
  let rc = ref 0 in
  if want_telemetry && not (List.mem "ddcr" names) then begin
    Format.eprintf
      "ddcr_sim: --telemetry/--trace-out/--headroom record the DDCR run; \
       protocol %S never runs it@."
      protocol;
    rc := 1
  end;
  List.iter
    (fun name ->
      let collected =
        if trace_summary && name = "ddcr" then Some (Ddcr_trace.collector ())
        else None
      in
      let tele =
        if want_telemetry && name = "ddcr" then
          Some
            (Recorder.create
               ~bounds:
                 (Feasibility.headroom_bounds (Feasibility.check params inst))
               ())
        else None
      in
      let sink =
        Sink.tee
          (Option.fold ~none:Sink.null ~some:fst collected)
          (Option.fold ~none:Sink.null ~some:Recorder.sink tele)
      in
      let o =
        run_one ~name ~inst ~params ~trace ~horizon ~seed ~sink
      in
      Format.printf "%-14s %a@." o.Run.protocol Run.pp_metrics (Run.metrics o);
      (match collected with
      | Some (_, finish) ->
        Format.printf "%a@." Ddcr_trace.pp_summary
          (Ddcr_trace.summarize (finish ()))
      | None -> ());
      (match Summary.of_list (List.map Run.latency o.Run.completions) with
      | Some s ->
        Format.printf "  latency: %a@." Summary.pp s;
        if histogram then begin
          let h =
            Summary.Histogram.create ~lo:s.Summary.min ~hi:(s.Summary.max + 1)
              ~buckets:12
          in
          List.iter
            (fun c -> Summary.Histogram.add h (Run.latency c))
            o.Run.completions;
          print_string (Summary.Histogram.render h)
        end
      | None -> ());
      if per_class then
        List.iter
          (fun (cls_id, worst) ->
            let c =
              List.find
                (fun c -> c.Message.cls_id = cls_id)
                (Instance.classes inst)
            in
            Format.printf "  %-12s worst %10d  B_DDCR %12.0f@."
              c.Message.cls_name worst
              (Feasibility.latency_bound params inst c))
          (Run.per_class_worst_latency o);
      match tele with
      | None -> ()
      | Some r ->
        if telemetry then begin
          Format.printf "telemetry registry:@.";
          print_string (Registry.render (Recorder.snapshot r))
        end;
        if telemetry || headroom then begin
          Format.printf "bound headroom (bit-times):@.";
          print_string (Headroom.render (Recorder.headroom_table r))
        end;
        (match trace_out with
        | None -> ()
        | Some path -> (
          try
            Rtnet_util.Json.to_file path (Recorder.trace_json r);
            Format.printf "telemetry trace written to %s@." path
          with Sys_error e ->
            Format.eprintf "ddcr_sim: cannot write trace: %s@." e;
            rc := 1)))
    names;
  !rc

let cmd =
  let term =
    Term.(
      const main $ Cli_common.scenario $ Cli_common.size $ Cli_common.load
      $ Cli_common.deadline_windows $ Cli_common.seed $ Cli_common.horizon_ms
      $ Cli_common.indices_per_source $ Cli_common.burst_bits
      $ Cli_common.theta $ Cli_common.allocation $ Cli_common.adversary
      $ protocol $ per_class $ histogram $ trace_summary $ telemetry_flag
      $ trace_out $ headroom_flag)
  in
  Cmd.v
    (Cmd.info "ddcr_sim" ~doc:"Simulate HRTDM scenarios under MAC protocols")
    term

let () = exit (Cmd.eval' cmd)
