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
module Spec = Rtnet_campaign.Spec

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

let adversary =
  Arg.(
    value & flag
    & info [ "adversary" ]
        ~doc:"Replace every arrival law by the greedy peak-load adversary.")

(* The protocols to run: "all" or one single-bus protocol ("topo"
   simulates a federation, not one bus).  Decoded before anything is
   printed. *)
let protocols_of = function
  | "all" -> Ok Spec.all_protocols
  | name -> (
    match Spec.protocol_of_string name with
    | Ok p when List.mem p Spec.all_protocols -> Ok [ p ]
    | Ok _ | Error _ ->
      Error
        (Printf.sprintf "unknown protocol %S (one of: %s, all)" name
           (String.concat ", "
              (List.map Spec.protocol_label Spec.all_protocols))))

let run_one protocol ~inst ~params ~trace ~horizon ~seed ~sink =
  match protocol with
  | Spec.Ddcr -> Ddcr.run_trace ~sink params inst trace ~horizon
  | Beb -> Beb.run_trace ~seed inst trace ~horizon
  | Dcr -> Dcr.run_trace (Dcr.of_ddcr params) inst trace ~horizon
  | Tdma -> Tdma.run_trace inst trace ~horizon
  | Oracle -> Np_edf.run inst.Instance.phy trace ~horizon
  | Topo -> invalid_arg "ddcr_sim: topo has no single-bus run"

let main scenario params seed horizon_ms adversary protocol per_class
    histogram trace_summary telemetry trace_out headroom =
  let ( let* ) = Result.bind in
  let* inst = Spec.instance_result scenario in
  let inst =
    if adversary then Instance.with_law inst Arrival.Greedy_burst else inst
  in
  let* horizon = Cli_common.horizon_of horizon_ms in
  let* protocols = protocols_of protocol in
  let want_telemetry = telemetry || headroom || trace_out <> None in
  let* () = Cli_common.check_out_file ~flag:"--trace-out" trace_out in
  let* () =
    if (want_telemetry || trace_summary) && not (List.mem Spec.Ddcr protocols)
    then
      Error
        (Printf.sprintf
           "--telemetry/--trace-out/--headroom/--trace-summary record the \
            DDCR run; protocol %S never runs it"
           protocol)
    else Ok ()
  in
  let trace = Instance.trace inst ~seed ~horizon in
  let params = params inst in
  Format.printf "%a@.parameters: %a@.trace: %d messages over %d ms@.@."
    Instance.pp inst Ddcr_params.pp params (List.length trace) horizon_ms;
  let rc = ref 0 in
  List.iter
    (fun p ->
      let is_ddcr = p = Spec.Ddcr in
      let collected =
        if trace_summary && is_ddcr then Some (Ddcr_trace.collector ())
        else None
      in
      let tele =
        if want_telemetry && is_ddcr then
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
      let o = run_one p ~inst ~params ~trace ~horizon ~seed ~sink in
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
    protocols;
  Ok !rc

let cmd =
  Cli_common.cmd
    (Cmd.info "ddcr_sim" ~doc:"Simulate HRTDM scenarios under MAC protocols")
    Term.(
      const main $ Cli_common.scenario $ Cli_common.params $ Cli_common.seed
      $ Cli_common.horizon_ms () $ adversary $ protocol $ per_class
      $ histogram $ trace_summary $ Cli_common.telemetry $ Cli_common.trace_out
      $ Cli_common.headroom)
