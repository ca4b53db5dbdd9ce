module Json = Rtnet_util.Json
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Feasibility = Rtnet_core.Feasibility
module Recorder = Rtnet_telemetry.Recorder
module Registry = Rtnet_telemetry.Registry
module Headroom = Rtnet_telemetry.Headroom
module Run = Rtnet_stats.Run
module Run_json = Rtnet_stats.Run_json
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Beb = Rtnet_baselines.Csma_cd_beb
module Dcr = Rtnet_baselines.Csma_dcr
module Tdma = Rtnet_baselines.Tdma
module Np_edf = Rtnet_edf.Np_edf
module Config_lint = Rtnet_analysis.Config_lint
module Diagnostic = Rtnet_analysis.Diagnostic
module Topo = Rtnet_topology.Topo
module Admit = Rtnet_topology.Admit
module Topo_driver = Rtnet_topology.Driver
module Decompose = Rtnet_core.Decompose

let ( let* ) = Result.bind

type cell = {
  index : int;
  protocol : Spec.protocol;
  scenario : Spec.scenario;
  variant : Spec.variant;
  replicate : int;
  trace_seed : int;
  protocol_seed : int;
  fault_seed : int;
}

(* Fixed nesting order: scenario, variant, replicate, protocol.  The
   seeds depend only on the coordinates (not on the index), so
   reordering the spec's axes renumbers cells but never changes what a
   given configuration computes. *)
let cells spec =
  let acc = ref [] in
  let index = ref 0 in
  List.iteri
    (fun si scenario ->
      List.iteri
        (fun vi variant ->
          for r = 0 to spec.Spec.replicates - 1 do
            List.iteri
              (fun pi protocol ->
                let base = spec.Spec.base_seed in
                acc :=
                  {
                    index = !index;
                    protocol;
                    scenario;
                    variant;
                    replicate = r;
                    trace_seed =
                      Seeding.trace_seed ~base ~scenario:si ~variant:vi
                        ~replicate:r;
                    protocol_seed =
                      Seeding.protocol_seed ~base ~scenario:si ~variant:vi
                        ~replicate:r ~protocol:pi;
                    fault_seed =
                      Seeding.fault_seed ~base ~scenario:si ~variant:vi
                        ~replicate:r;
                  }
                  :: !acc;
                incr index)
              spec.Spec.protocols
          done)
        spec.Spec.variants)
    spec.Spec.scenarios;
  Array.of_list (List.rev !acc)

let key c =
  Printf.sprintf "%s/%s/%s/r%d"
    (Spec.protocol_label c.protocol)
    (Spec.scenario_label c.scenario)
    (Spec.variant_label c.variant)
    c.replicate

type result_ = {
  r_metrics : Run.metrics;
  r_channel : Channel.stats option;
  r_elapsed_s : float;
  r_telemetry : Json.t option;
}

let params_for variant inst =
  Ddcr_params.with_theta
    (Ddcr_params.with_burst (Ddcr_params.default inst)
       variant.Spec.v_burst_bits)
    variant.Spec.v_theta

(* A topo scenario expands into a whole federated tree of uniform
   4-source segments (one flow per non-root segment, routed up to the
   root) — mirrored by Spec's scenario doc and the CFG-TOPO lint. *)
let tree_of scenario =
  Topo.tree
    ~name:(Spec.scenario_label scenario)
    ~segments:scenario.Spec.sc_size ~fanout:scenario.Spec.sc_fanout ~sources:4
    ~load:scenario.Spec.sc_load
    ~deadline_windows:scenario.Spec.sc_deadline_windows ()

(* Campaign topo cells decompose slack-weighted: each hop gets its
   B_DDCR bound plus an equal slack share, so a flow admits iff the
   bounds (plus bridge delays) fit its deadline at all — under the
   proportional split the deep hops of a 3-hop flow are starved no
   matter how far the deadline is stretched. *)
let topo_policy = Decompose.Slack_weighted

(* A topo variant's fault plan lands on the tree's {e root} segment —
   the hub every flow terminates at, so its inbound bridge stations
   (the interesting crash targets, station [sources + ordinal]) are
   all valid there.  [Topo.tree] names the root "seg0". *)
let topo_tree_of scenario variant =
  let tree = tree_of scenario in
  match variant.Spec.v_fault_plan with
  | None -> Ok tree
  | Some plan -> Topo.with_faults tree [ ("seg0", plan) ]

let run_topo_cell spec c t0 =
  let horizon = spec.Spec.horizon_ms * 1_000_000 in
  let tree =
    match topo_tree_of c.scenario c.variant with
    | Ok t -> t
    | Error e -> failwith ("topo cell: " ^ e)
  in
  match Admit.elaborate ~policy:topo_policy tree with
  | Error e -> failwith ("topo cell: " ^ e)
  | Ok e ->
    let res =
      match
        Topo_driver.run_seeded e ~seed:c.trace_seed
          ~fault_seed:c.fault_seed ~horizon
      with
      | Ok res -> res
      | Error e -> failwith ("topo cell: " ^ e)
    in
    {
      r_metrics = res.Topo_driver.r_metrics;
      r_channel = res.Topo_driver.r_outcome.Run.channel;
      r_elapsed_s = Unix.gettimeofday () -. t0;
      r_telemetry = None;
    }

let run_cell ?(telemetry = false) spec c =
  let t0 = Unix.gettimeofday () in
  if c.protocol = Spec.Topo then run_topo_cell spec c t0
  else
  let inst = Spec.instance c.scenario in
  let horizon = spec.Spec.horizon_ms * 1_000_000 in
  let trace = Instance.trace inst ~seed:c.trace_seed ~horizon in
  (* [fault_rate] is shorthand for an i.i.d. plan; [Spec.validate]
     rejects a variant that sets both. *)
  let plan =
    Option.map
      (Fault_plan.create ~horizon ~seed:c.fault_seed)
      (if c.variant.Spec.v_fault_rate > 0. then
         Some (Fault_plan.iid c.variant.Spec.v_fault_rate)
       else c.variant.Spec.v_fault_plan)
  in
  (* Telemetry is recorded for DDCR cells only — the probes live in
     the DDCR simulator; baseline cells ignore the flag.  The recorder
     annotates each transmission span and the headroom gauges with the
     analytic per-class bounds of the cell's exact configuration. *)
  let recorder =
    if telemetry && c.protocol = Spec.Ddcr then
      Some
        (Recorder.create
           ~bounds:
             (Feasibility.headroom_bounds
                (Feasibility.check (params_for c.variant inst) inst))
           ())
    else None
  in
  let outcome =
    match c.protocol with
    | Spec.Ddcr ->
      let sink =
        match recorder with
        | Some r -> Recorder.sink r
        | None -> Rtnet_telemetry.Sink.null
      in
      Ddcr.run_trace ?plan ~sink (params_for c.variant inst) inst trace ~horizon
    | Spec.Beb ->
      Beb.run_trace ?plan ~seed:c.protocol_seed inst trace ~horizon
    | Spec.Dcr ->
      Dcr.run_trace (Dcr.of_ddcr (params_for c.variant inst)) inst trace ~horizon
    | Spec.Tdma -> Tdma.run_trace inst trace ~horizon
    | Spec.Oracle -> Np_edf.run inst.Instance.phy trace ~horizon
    | Spec.Topo -> assert false (* handled by [run_topo_cell] above *)
  in
  {
    r_metrics = Run.metrics outcome;
    r_channel = outcome.Run.channel;
    r_elapsed_s = Unix.gettimeofday () -. t0;
    r_telemetry =
      Option.map
        (fun r ->
          Json.Obj
            [
              ("registry", Registry.snapshot_to_json (Recorder.snapshot r));
              ("headroom", Headroom.to_json (Recorder.headroom_table r));
            ])
        recorder;
  }

let result_to_json r =
  Json.Obj
    ([
       ("metrics", Run_json.metrics_to_json r.r_metrics);
       ( "channel",
         match r.r_channel with
         | None -> Json.Null
         | Some st -> Run_json.channel_stats_to_json st );
       ("elapsed_s", Json.Float r.r_elapsed_s);
     ]
    (* Emitted only when present, so pre-telemetry reports (and their
       fingerprints) are byte-identical. *)
    @ match r.r_telemetry with None -> [] | Some t -> [ ("telemetry", t) ])

let result_of_json j =
  let* mj = Json.field "metrics" j in
  let* metrics = Run_json.metrics_of_json mj in
  let* channel = Json.field_opt "channel" Run_json.channel_stats_of_json j in
  let* elapsed = Json.field_or "elapsed_s" ~default:0. Json.get_float j in
  Ok
    {
      r_metrics = metrics;
      r_channel = channel;
      r_elapsed_s = elapsed;
      r_telemetry = Json.member "telemetry" j;
    }

(* The fail-fast gate: lint every (scenario, variant) DDCR configuration
   of the sweep before forking any worker.  The linter's oracle-aware
   severities apply (a conservative-bound violation the NP-EDF oracle
   forgives is a warning); an [Error] rejects the whole campaign. *)
let lint spec =
  let fault_diags =
    (* Fault plans are scenario-independent: lint each one once.  A
       station exists in every single-bus scenario iff it exists in
       the smallest. *)
    let stations =
      List.fold_left
        (fun acc scenario ->
          if scenario.Spec.sc_kind = "topo" then acc
          else
            let n = (Spec.instance scenario).Instance.num_sources in
            Some (match acc with None -> n | Some m -> min m n))
        None spec.Spec.scenarios
    in
    List.concat_map
      (fun variant ->
        match variant.Spec.v_fault_plan with
        | None -> []
        | Some plan ->
          List.map
            (fun d ->
              {
                d with
                Diagnostic.subject =
                  Spec.variant_label variant ^ ":" ^ d.Diagnostic.subject;
              })
            (Config_lint.check_fault
               ~horizon:(spec.Spec.horizon_ms * 1_000_000)
               ?stations plan))
      spec.Spec.variants
  in
  fault_diags
  @ List.concat_map
      (fun scenario ->
        if scenario.Spec.sc_kind = "topo" then
          (* A topo scenario is a whole federation: the CFG-TOPO lint
             covers routing, per-hop budgets and bridge queues in one
             pass.  Variants carrying a fault plan are linted again
             with the plan attached (CFG-TOPO-FAULT: station validity,
             fault-aware bridge oracle, slackless-window warnings). *)
          List.map
            (fun d ->
              {
                d with
                Diagnostic.subject =
                  Spec.scenario_label scenario ^ ":" ^ d.Diagnostic.subject;
              })
            (Config_lint.check_topo ~policy:topo_policy (tree_of scenario))
          @ List.concat_map
              (fun variant ->
                let label =
                  Printf.sprintf "%s/%s" (Spec.scenario_label scenario)
                    (Spec.variant_label variant)
                in
                match variant.Spec.v_fault_plan with
                | None -> []
                | Some _ -> (
                  match topo_tree_of scenario variant with
                  | Error e ->
                    [
                      Diagnostic.error ~rule_id:"CFG-TOPO-FAULT" ~subject:label
                        ~paper_ref:"DESIGN.md #14" e;
                    ]
                  | Ok tree ->
                    List.map
                      (fun d ->
                        {
                          d with
                          Diagnostic.subject = label ^ ":" ^ d.Diagnostic.subject;
                        })
                      (Config_lint.check_topo ~policy:topo_policy tree)))
              spec.Spec.variants
        else
          let inst = Spec.instance scenario in
          List.concat_map
            (fun variant ->
              let label =
                Printf.sprintf "%s/%s" (Spec.scenario_label scenario)
                  (Spec.variant_label variant)
              in
              List.map
                (fun d ->
                  { d with Diagnostic.subject = label ^ ":" ^ d.Diagnostic.subject })
                (Config_lint.check (params_for variant inst) inst))
            spec.Spec.variants)
      spec.Spec.scenarios
