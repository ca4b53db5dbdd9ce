(* Discrete manufacturing on dual-bus deterministic Ethernet.

   Section 5 reports that CSMA/DCR-based "single and dual bus
   Ethernets" were deployed for discrete/continuous manufacturing
   (Dassault Electronique, APTOR) and local area networking across the
   Ariane launchpad.  This example reproduces that engineering flow
   with CSMA/DDCR:

   1. a six-cell production line is NOT provably schedulable on one
      Gigabit segment (the emergency-stop deadline margin exceeds 1);
   2. partitioning the message set over two parallel busses restores
      provable feasibility per bus;
   3. simulation under the saturating adversary confirms both verdicts,
      and a channel-noise run shows the protocol retrying garbled
      frames without losing safety.

   Run with: dune exec examples/factory.exe *)

module Scenarios = Rtnet_workload.Scenarios
module Instance = Rtnet_workload.Instance
module Arrival = Rtnet_workload.Arrival
module Fault_plan = Rtnet_channel.Fault_plan
module Run = Rtnet_stats.Run
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Multi_bus = Rtnet_core.Multi_bus

let ms = 1_000_000

let () =
  let inst = Scenarios.manufacturing ~cells:6 in
  Format.printf "%a@." Instance.pp inst;

  (* 1. One bus: the FCs reject the configuration. *)
  let single_params = Ddcr_params.default inst in
  let single = Feasibility.check single_params inst in
  Format.printf "@.single bus: feasible = %b (worst margin %.3f)@."
    single.Feasibility.feasible single.Feasibility.worst_margin;

  (* 2. Two busses: worst-fit partition of the classes, per-bus FCs. *)
  let assignment = Multi_bus.partition_exn inst ~buses:2 in
  let dual = Multi_bus.check assignment in
  Format.printf "@.%a@." Multi_bus.pp_report dual;
  Array.iteri
    (fun i bus ->
      Format.printf "  bus %d carries %d classes, peak load %.3f@." i
        (List.length (Instance.classes bus))
        (Instance.peak_utilization bus))
    assignment.Multi_bus.buses;

  (* 3. Adversarial simulation on both configurations. *)
  let horizon = 50 * ms in
  let adversary = Instance.with_law inst Arrival.Greedy_burst in
  let single_run =
    Run.metrics (Ddcr.run ~seed:4 single_params adversary ~horizon)
  in
  let adv_assignment = Multi_bus.partition_exn adversary ~buses:2 in
  let dual_run = Run.metrics (Multi_bus.run ~seed:4 adv_assignment ~horizon) in
  Format.printf "@.under the peak-load adversary:@.";
  Format.printf "  single bus: %a@." Run.pp_metrics single_run;
  Format.printf "  dual bus:   %a@." Run.pp_metrics dual_run;

  (* 4. Electromagnetic reality of a factory floor: 5%% frame loss. *)
  let plan = Fault_plan.create ~seed:12 (Fault_plan.iid 0.05) in
  let noisy =
    Run.metrics
      (Ddcr.run ~plan ~seed:4
         (Ddcr_params.default assignment.Multi_bus.buses.(0))
         assignment.Multi_bus.buses.(0) ~horizon)
  in
  Format.printf "@.bus 0 with 5%% frame corruption: %a@." Run.pp_metrics noisy;
  print_endline
    "\n(the noisy run retries garbled frames deterministically; safety\n\
     and lockstep are preserved, latency absorbs the retries)"
