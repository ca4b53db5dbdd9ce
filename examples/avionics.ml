(* Modular avionics on a deterministic Ethernet — the application
   domain through which the TRDF method (Section 2.1) was originally
   exercised (French DARPA / Dassault Aviation).

   A flight-control segment carries harmonic periodic traffic (attitude
   sensors, actuator commands) plus sporadic pilot/alarm events.  The
   engineering question the feasibility conditions answer: can every
   message provably meet its deadline, including under the worst
   arrival pattern the density bounds admit?

   Run with: dune exec examples/avionics.exe *)

module Message = Rtnet_workload.Message
module Arrival = Rtnet_workload.Arrival
module Instance = Rtnet_workload.Instance
module Phy = Rtnet_channel.Phy
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Dimensioning = Rtnet_core.Dimensioning
module Run = Rtnet_stats.Run
module Table = Rtnet_util.Table

let us = 1_000
let ms = 1_000_000

let cls ~id ~name ~source ~bits ~deadline ~burst ~window =
  {
    Message.cls_id = id;
    cls_name = name;
    cls_source = source;
    cls_bits = bits;
    cls_deadline = deadline;
    cls_burst = burst;
    cls_window = window;
  }

(* Four flight-control computers plus one IO concentrator. *)
let instance =
  let fcc i =
    [
      ( cls ~id:(4 * i) ~name:(Printf.sprintf "attitude%d" i) ~source:i
          ~bits:1_600 ~deadline:(500 * us) ~burst:1 ~window:(2500 * us),
        Arrival.Periodic { offset = i * 50 * us } );
      ( cls ~id:(4 * i + 1) ~name:(Printf.sprintf "actuator%d" i) ~source:i
          ~bits:2_400 ~deadline:(1 * ms) ~burst:1 ~window:(5 * ms),
        Arrival.Periodic { offset = (i * 50 * us) + (200 * us) } );
      ( cls ~id:(4 * i + 2) ~name:(Printf.sprintf "health%d" i) ~source:i
          ~bits:6_400 ~deadline:(10 * ms) ~burst:1 ~window:(25 * ms),
        Arrival.Sporadic { mean_slack = 0.5 } );
      ( cls ~id:(4 * i + 3) ~name:(Printf.sprintf "alarm%d" i) ~source:i
          ~bits:800 ~deadline:(2 * ms) ~burst:2 ~window:(50 * ms),
        Arrival.Poisson { intensity = 0.2 } );
    ]
  in
  let io =
    ( cls ~id:16 ~name:"io-frame" ~source:4 ~bits:9_600 ~deadline:(5 * ms)
        ~burst:1 ~window:(5 * ms),
      Arrival.Periodic { offset = 333 * us } )
  in
  Instance.create_exn ~name:"avionics" ~phy:Phy.gigabit_ethernet ~num_sources:5
    (io :: List.concat_map fcc [ 0; 1; 2; 3 ])

let () =
  Format.printf "%a@." Instance.pp instance;

  (* Dimension the protocol from the FCs rather than guessing. *)
  let params =
    match Dimensioning.dimension instance with
    | Dimensioning.Feasible p -> p
    | Dimensioning.Infeasible (p, m) ->
      Format.printf "not provably feasible (margin %.3f), using best candidate@." m;
      p
  in
  Format.printf "@.dimensioned: %a@.@." Ddcr_params.pp params;
  Format.printf "%a@.@." Feasibility.pp_report (Feasibility.check params instance);

  (* Certification-style evidence: run the peak-load adversary (every
     density bound saturated) and compare observed worst latencies with
     the proved bounds. *)
  let adversary = Instance.with_law instance Arrival.Greedy_burst in
  let outcome = Ddcr.run ~seed:2 params adversary ~horizon:(100 * ms) in
  let tbl = Table.create [ "class"; "worst observed (us)"; "B_DDCR (us)"; "headroom" ] in
  List.iter
    (fun (cls_id, worst) ->
      let c =
        List.find (fun c -> c.Message.cls_id = cls_id) (Instance.classes adversary)
      in
      let bound = Feasibility.latency_bound params adversary c in
      Table.add_row tbl
        [
          c.Message.cls_name;
          Printf.sprintf "%.1f" (float_of_int worst /. 1000.);
          Printf.sprintf "%.1f" (bound /. 1000.);
          Printf.sprintf "%.1fx" (bound /. float_of_int worst);
        ])
    (Run.per_class_worst_latency outcome);
  Table.print tbl;
  Format.printf "@.under peak load: %a@." Run.pp_metrics (Run.metrics outcome)
