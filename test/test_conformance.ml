(* Randomized conformance: CSMA/DDCR must uphold its invariants on
   arbitrary small instances — random media, class shapes, arrival
   laws and protocol parameters.  Each case runs a full simulation
   with lockstep checking on (so replication divergence or a safety
   violation raises) and then checks the observable contracts. *)

module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Arrival = Rtnet_workload.Arrival
module Phy = Rtnet_channel.Phy
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Run = Rtnet_stats.Run

type case = {
  instance : Instance.t;
  params : Ddcr_params.t;
  horizon : int;
  seed : int;
  fault : Fault_plan.spec option;
}

(* A fresh sampler per run: plans are stateful. *)
let plan c = Option.map (fun sp -> Fault_plan.create ~seed:c.seed sp) c.fault

let case_gen =
  let open QCheck.Gen in
  let* phy_ix = int_range 0 2 in
  let phy, horizon =
    match phy_ix with
    | 0 -> (Phy.classic_ethernet, 600_000)
    | 1 -> (Phy.gigabit_ethernet, 5_000_000)
    | _ -> (Phy.atm_bus, 300_000)
  in
  let* z = int_range 1 5 in
  let* classes_per_source = int_range 1 2 in
  let law_of ix phase =
    match ix mod 6 with
    | 0 -> Arrival.Periodic { offset = phase }
    | 1 -> Arrival.Sporadic { mean_slack = 0.8 }
    | 2 -> Arrival.Greedy_burst
    | 3 -> Arrival.Poisson { intensity = 1.5 }
    | 4 -> Arrival.Staggered_burst { phase = 0.3 }
    | _ -> Arrival.On_off { on_windows = 2; off_windows = 2 }
  in
  let* specs =
    list_repeat (z * classes_per_source)
      (let* bits = int_range 400 8_000 in
       let* deadline = int_range (horizon / 10) (horizon / 2) in
       let* burst = int_range 1 3 in
       let* window = int_range (horizon / 8) (horizon / 2) in
       let* law_ix = int_range 0 5 in
       let* phase = int_range 0 (horizon / 10) in
       return (bits, deadline, burst, window, law_ix, phase))
  in
  let classes =
    List.mapi
      (fun i (bits, deadline, burst, window, law_ix, phase) ->
        ( {
            Message.cls_id = i;
            cls_name = Printf.sprintf "r%d" i;
            cls_source = i mod z;
            cls_bits = bits;
            cls_deadline = deadline;
            cls_burst = burst;
            cls_window = window;
          },
          law_of law_ix phase ))
      specs
  in
  let instance =
    Instance.create_exn ~name:"conformance" ~phy ~num_sources:z classes
  in
  let* ipc = int_range 1 2 in
  let* time_leaves = oneofl [ 16; 64 ] in
  let* theta_on = bool in
  let* burst_bits = oneofl [ 0; 16_384 ] in
  let base = Ddcr_params.default ~indices_per_source:ipc ~time_leaves instance in
  let params =
    Ddcr_params.with_burst
      (Ddcr_params.with_theta base
         (if theta_on then base.Ddcr_params.class_width else 0))
      burst_bits
  in
  let* seed = int_range 1 1_000_000 in
  let* faulty = bool in
  let fault = if faulty then Some (Fault_plan.iid 0.05) else None in
  return { instance; params; horizon; seed; fault }

let case_arb =
  QCheck.make
    ~print:(fun c ->
      Format.asprintf "%a / %a / horizon %d / seed %d / fault %b" Instance.pp
        c.instance Ddcr_params.pp c.params c.horizon c.seed (c.fault <> None))
    case_gen

let edf_order_per_source ~slot completions =
  let by_source = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let src = c.Run.c_msg.Message.cls.Message.cls_source in
      let prev = try Hashtbl.find by_source src with Not_found -> [] in
      Hashtbl.replace by_source src (c :: prev))
    completions;
  Hashtbl.fold
    (fun _src cs acc ->
      let cs = List.rev cs in
      let rec ok = function
        | a :: (b :: _ as rest) ->
          (* The protocol commits to a frame at a contention-slot
             start; on an arbitrated medium the frame hits the wire one
             slot later, so arrivals within that slot could not have
             been considered. *)
          (b.Run.c_msg.Message.arrival + slot > a.Run.c_start
          || Message.compare_edf a.Run.c_msg b.Run.c_msg < 0)
          && ok rest
        | [ _ ] | [] -> true
      in
      acc && ok cs)
    by_source true

let prop_conformance =
  QCheck.Test.make ~name:"ddcr invariants on random instances" ~count:40
    case_arb
    (fun c ->
      let trace = Instance.trace c.instance ~seed:c.seed ~horizon:c.horizon in
      (* Lockstep + channel safety asserted inside the run. *)
      let o =
        Ddcr.run_trace ~check_lockstep:true ?plan:(plan c) c.params c.instance
          trace ~horizon:c.horizon
      in
      let conserved =
        List.length o.Run.completions + List.length o.Run.unfinished
        = List.length trace
        && o.Run.dropped = []
      in
      let stats_consistent =
        match o.Run.channel with
        | Some st -> st.Channel.tx_count = List.length o.Run.completions
        | None -> false
      in
      let fc_respected =
        c.fault <> None
        || (not (Feasibility.check c.params c.instance).Feasibility.feasible)
        || List.for_all (fun cmp -> not (Run.missed cmp)) o.Run.completions
      in
      conserved && stats_consistent
      && edf_order_per_source
           ~slot:c.instance.Instance.phy.Phy.slot_bits o.Run.completions
      && fc_respected)

let prop_baselines_conserve =
  (* The baselines must uphold the harness-level contracts on the same
     random instances: conservation (BEB may drop, never lose) and
     channel-stats consistency. *)
  QCheck.Test.make ~name:"baseline invariants on random instances" ~count:25
    case_arb
    (fun c ->
      let trace = Instance.trace c.instance ~seed:c.seed ~horizon:c.horizon in
      let dcr =
        Rtnet_baselines.Csma_dcr.run_trace
          (Rtnet_baselines.Csma_dcr.of_ddcr c.params)
          c.instance trace ~horizon:c.horizon
      in
      let beb =
        Rtnet_baselines.Csma_cd_beb.run_trace ?plan:(plan c) ~seed:c.seed
          c.instance trace ~horizon:c.horizon
      in
      let contract o =
        List.length o.Run.completions
        + List.length o.Run.unfinished
        + List.length o.Run.dropped
        = List.length trace
        &&
        match o.Run.channel with
        | Some st -> st.Channel.tx_count = List.length o.Run.completions
        | None -> false
      in
      contract dcr && dcr.Run.dropped = [] && contract beb)

let suite =
  [
    ( "conformance",
      [
        QCheck_alcotest.to_alcotest ~long:true prop_conformance;
        QCheck_alcotest.to_alcotest ~long:true prop_baselines_conserve;
      ] );
  ]
