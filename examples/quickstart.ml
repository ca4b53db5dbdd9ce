(* Quickstart: define an HRTDM instance, check its feasibility
   conditions, and simulate CSMA/DDCR on it.

   Run with: dune exec examples/quickstart.exe *)

module Message = Rtnet_workload.Message
module Arrival = Rtnet_workload.Arrival
module Instance = Rtnet_workload.Instance
module Phy = Rtnet_channel.Phy
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Run = Rtnet_stats.Run

let ms = 1_000_000 (* 1 ms = 1e6 bit-times on Gigabit Ethernet *)

let () =
  (* 1. Describe the message set <m.HRTDM>: three sources sharing one
     half-duplex Gigabit Ethernet segment.  Every class declares its
     bit length l, hard relative deadline d, and arrival-density bound
     a/w ("at most a arrivals in any window of w"). *)
  let sensor =
    {
      Message.cls_id = 0;
      cls_name = "sensor";
      cls_source = 0;
      cls_bits = 4_000;
      cls_deadline = 2 * ms;
      cls_burst = 1;
      cls_window = 5 * ms;
    }
  in
  let control =
    {
      Message.cls_id = 1;
      cls_name = "control";
      cls_source = 1;
      cls_bits = 2_000;
      cls_deadline = 1 * ms;
      cls_burst = 2;
      cls_window = 10 * ms;
    }
  in
  let log =
    {
      Message.cls_id = 2;
      cls_name = "log";
      cls_source = 2;
      cls_bits = 12_000;
      cls_deadline = 20 * ms;
      cls_burst = 1;
      cls_window = 10 * ms;
    }
  in
  let inst =
    Instance.create_exn ~name:"quickstart" ~phy:Phy.gigabit_ethernet
      ~num_sources:3
      [
        (sensor, Arrival.Periodic { offset = 0 });
        (control, Arrival.Greedy_burst);
        (log, Arrival.Sporadic { mean_slack = 1.0 });
      ]
  in
  Format.printf "%a@." Instance.pp inst;

  (* 2. Derive protocol parameters and check the feasibility
     conditions of Section 4.3: the instance is provably schedulable
     iff B_DDCR(M) <= d(M) for every class. *)
  let params = Ddcr_params.default inst in
  Format.printf "@.parameters: %a@.@." Ddcr_params.pp params;
  let report = Feasibility.check params inst in
  Format.printf "%a@.@." Feasibility.pp_report report;

  (* 3. Simulate 100 ms of the network and confirm the proof holds in
     the implementation: zero deadline misses, mutual exclusion
     enforced by the channel, all sources in lockstep. *)
  let outcome = Ddcr.run ~seed:7 params inst ~horizon:(100 * ms) in
  let metrics = Run.metrics outcome in
  Format.printf "simulated 100 ms: %a@." Run.pp_metrics metrics;
  List.iter
    (fun (cls_id, worst) ->
      let c = List.find (fun c -> c.Message.cls_id = cls_id) (Instance.classes inst) in
      Format.printf "  %-8s worst observed %7d bit-times  vs bound %10.0f@."
        c.Message.cls_name worst
        (Feasibility.latency_bound params inst c))
    (Run.per_class_worst_latency outcome);
  if report.Feasibility.feasible && metrics.Run.deadline_misses = 0 then
    print_endline "\nfeasible by the FCs, and the simulation agrees."
