module Json = Rtnet_util.Json
module Scenarios = Rtnet_workload.Scenarios
module Fault_plan = Rtnet_channel.Fault_plan
module Instance = Rtnet_workload.Instance

let ( let* ) = Result.bind

type protocol = Ddcr | Beb | Dcr | Tdma | Oracle | Topo

(* [Topo] is deliberately not in [all_protocols]: it is a different
   shape of cell (a federated tree of segments, not one medium), only
   meaningful with "topo" scenarios, and adding it here would change
   the cell grids — and golden baselines — of every shipped campaign. *)
let all_protocols = [ Ddcr; Beb; Dcr; Tdma; Oracle ]

let protocol_label = function
  | Ddcr -> "ddcr"
  | Beb -> "beb"
  | Dcr -> "dcr"
  | Tdma -> "tdma"
  | Oracle -> "oracle"
  | Topo -> "topo"

let protocol_of_string = function
  | "ddcr" -> Ok Ddcr
  | "beb" -> Ok Beb
  | "dcr" -> Ok Dcr
  | "tdma" -> Ok Tdma
  | "oracle" -> Ok Oracle
  | "topo" -> Ok Topo
  | other -> Error (Printf.sprintf "unknown protocol %S" other)

type scenario = {
  sc_kind : string;
  sc_size : int;
  sc_load : float;
  sc_deadline_windows : float;
  sc_fanout : int;
}

let scenario_kinds =
  [
    "videoconference"; "atc"; "trading"; "atm"; "manufacturing"; "skewed";
    "uniform"; "topo";
  ]

let scenario_label sc =
  if sc.sc_kind = "uniform" then
    Printf.sprintf "uniform-%d-%.2f" sc.sc_size sc.sc_load
  else if sc.sc_kind = "topo" then
    Printf.sprintf "topo-%dseg-f%d-%.2f" sc.sc_size sc.sc_fanout sc.sc_load
  else Printf.sprintf "%s-%d" sc.sc_kind sc.sc_size

let instance_result sc =
  if sc.sc_kind = "topo" then
    (* A "topo" scenario is a whole federation, not one medium —
       Grid.run_cell builds it via Rtnet_topology.Topo.tree. *)
    Error "topo scenarios have no single-segment instance"
  else
    Scenarios.of_kind ~kind:sc.sc_kind ~size:sc.sc_size ~load:sc.sc_load
      ~deadline_windows:sc.sc_deadline_windows

let instance sc =
  match instance_result sc with Ok inst -> inst | Error e -> failwith e

type variant = {
  v_fault_rate : float;
  v_burst_bits : int;
  v_theta : int;
  v_fault_plan : Fault_plan.spec option;
}

let default_variant =
  { v_fault_rate = 0.; v_burst_bits = 0; v_theta = 0; v_fault_plan = None }

let variant_label v =
  let base = Printf.sprintf "f%.2f-b%d-t%d" v.v_fault_rate v.v_burst_bits v.v_theta in
  match v.v_fault_plan with
  | None -> base
  | Some plan -> base ^ "-" ^ Fault_plan.label plan

type t = {
  name : string;
  base_seed : int;
  replicates : int;
  horizon_ms : int;
  protocols : protocol list;
  scenarios : scenario list;
  variants : variant list;
}

let cell_count spec =
  List.length spec.protocols * List.length spec.scenarios
  * List.length spec.variants * spec.replicates

let rec find_dup = function
  | [] -> None
  | x :: rest -> if List.mem x rest then Some x else find_dup rest

let validate spec =
  if spec.name = "" then Error "campaign name is empty"
  else if String.exists (fun c -> c = '/' || c = ' ') spec.name then
    Error "campaign name must not contain '/' or spaces"
  else if spec.replicates < 1 then Error "replicates < 1"
  else if spec.horizon_ms < 1 then Error "horizon_ms < 1"
  else if spec.protocols = [] then Error "no protocols"
  else if spec.scenarios = [] then Error "no scenarios"
  else if spec.variants = [] then Error "no variants"
  else
    let* () =
      match find_dup (List.map protocol_label spec.protocols) with
      | Some p -> Error (Printf.sprintf "duplicate protocol %S" p)
      | None -> Ok ()
    in
    let* () =
      match find_dup (List.map scenario_label spec.scenarios) with
      | Some s -> Error (Printf.sprintf "duplicate scenario %S" s)
      | None -> Ok ()
    in
    let* () =
      match find_dup (List.map variant_label spec.variants) with
      | Some v -> Error (Printf.sprintf "duplicate variant %S" v)
      | None -> Ok ()
    in
    let* () =
      List.fold_left
        (fun acc sc ->
          let* () = acc in
          if not (List.mem sc.sc_kind scenario_kinds) then
            Error (Printf.sprintf "unknown scenario kind %S" sc.sc_kind)
          else if sc.sc_size < 1 then
            Error (Printf.sprintf "%s: size < 1" (scenario_label sc))
          else if sc.sc_kind = "skewed" && sc.sc_size < 2 then
            Error "skewed: size < 2"
          else if
            (sc.sc_kind = "uniform" || sc.sc_kind = "topo")
            && (sc.sc_load <= 0. || sc.sc_deadline_windows <= 0.)
          then
            Error
              (Printf.sprintf "%s: load and deadline_windows must be positive"
                 sc.sc_kind)
          else if sc.sc_kind = "topo" && sc.sc_fanout < 1 then
            Error "topo: fanout < 1"
          else Ok ())
        (Ok ()) spec.scenarios
    in
    (* Topo cells are a different shape (a federated tree, not one
       medium): the protocol and the scenario kind must opt in
       together, and the single-medium variant axes (faults, bursting,
       theta) do not apply. *)
    let* () =
      let topo_scenario = List.exists (fun sc -> sc.sc_kind = "topo") spec.scenarios in
      let topo_protocol = List.mem Topo spec.protocols in
      if not (topo_scenario || topo_protocol) then Ok ()
      else if spec.protocols <> [ Topo ] then
        Error "topo scenarios require protocols = [topo] (and vice versa)"
      else if List.exists (fun sc -> sc.sc_kind <> "topo") spec.scenarios then
        Error "protocol topo requires every scenario to be of kind topo"
      else if
        (* The fault-plan axis does apply to federations (Grid attaches
           the plan to the tree's root segment); the single-medium axes
           (fault_rate, bursting, theta) still do not. *)
        List.exists
          (fun v -> { v with v_fault_plan = None } <> default_variant)
          spec.variants
      then
        Error
          "topo campaigns take only default-shaped variants (a fault \
           plan is allowed; fault_rate, bursting and theta are not)"
      else Ok ()
    in
    (* A plan may name only stations that exist: checked once per
       single-bus scenario, against every variant's plan.  (A topo
       scenario's plan is checked against its tree by the lint.) *)
    let* () =
      List.fold_left
        (fun acc sc ->
          let* () = acc in
          if sc.sc_kind = "topo" then Ok ()
          else
            let* inst = instance_result sc in
            List.fold_left
              (fun acc v ->
                let* () = acc in
                match v.v_fault_plan with
                | None -> Ok ()
                | Some plan ->
                  Result.map_error
                    (fun e ->
                      Printf.sprintf "%s/%s: %s" (scenario_label sc)
                        (variant_label v) e)
                    (Fault_plan.check_stations
                       ~stations:inst.Instance.num_sources plan))
              (Ok ()) spec.variants)
        (Ok ()) spec.scenarios
    in
    List.fold_left
      (fun acc v ->
        let* () = acc in
        if v.v_fault_rate < 0. || v.v_fault_rate > 1. then
          Error (Printf.sprintf "%s: fault rate out of [0, 1]" (variant_label v))
        else if v.v_burst_bits < 0 then Error "negative burst budget"
        else if v.v_theta < 0 then Error "negative theta"
        else
          match v.v_fault_plan with
          | None -> Ok ()
          | Some plan ->
            let* () =
              Result.map_error
                (fun e -> Printf.sprintf "%s: %s" (variant_label v) e)
                (Fault_plan.validate ~horizon:(spec.horizon_ms * 1_000_000)
                   plan)
            in
            if v.v_fault_rate > 0. then
              Error
                (Printf.sprintf
                   "%s: fault_rate and fault_plan are mutually exclusive"
                   (variant_label v))
            else if
              (* Per-source faults need divergence recovery, which only
                 CSMA/DDCR implements; wire-level garbling is also
                 meaningful for BEB (it retries). *)
              Fault_plan.has_local_faults plan
              && List.exists (fun p -> p <> Ddcr && p <> Topo) spec.protocols
            then
              Error
                (Printf.sprintf
                   "%s: per-source faults (misperception/crashes) require \
                    protocols = [ddcr]"
                   (variant_label v))
            else if
              List.exists
                (fun p -> p <> Ddcr && p <> Beb && p <> Topo)
                spec.protocols
            then
              Error
                (Printf.sprintf
                   "%s: fault plans only apply to ddcr, beb and topo"
                   (variant_label v))
            else Ok ())
      (Ok ()) spec.variants

(* ---------------------------------------------------------------- *)
(* JSON codec.  [to_json] is canonical (fixed key order, all fields   *)
(* explicit): [hash] and the determinism guarantee depend on it.      *)

let scenario_to_json sc =
  (* The "fanout" key is emitted only for topo scenarios, so the
     canonical bytes — and therefore [hash] — of every pre-topology
     spec are unchanged (committed baselines keep loading). *)
  Json.Obj
    ([
       ("kind", Json.String sc.sc_kind);
       ("size", Json.Int sc.sc_size);
       ("load", Json.Float sc.sc_load);
       ("deadline_windows", Json.Float sc.sc_deadline_windows);
     ]
    @ if sc.sc_kind = "topo" then [ ("fanout", Json.Int sc.sc_fanout) ] else [])

let variant_to_json v =
  (* The "fault_plan" key is emitted only when set, so the canonical
     bytes — and therefore [hash] — of every pre-fault-plan spec are
     unchanged (committed baselines keep loading). *)
  Json.Obj
    ([
       ("fault_rate", Json.Float v.v_fault_rate);
       ("burst_bits", Json.Int v.v_burst_bits);
       ("theta", Json.Int v.v_theta);
     ]
    @
    match v.v_fault_plan with
    | None -> []
    | Some plan -> [ ("fault_plan", Fault_plan.spec_to_json plan) ])

let to_json spec =
  Json.Obj
    [
      ("name", Json.String spec.name);
      ("base_seed", Json.Int spec.base_seed);
      ("replicates", Json.Int spec.replicates);
      ("horizon_ms", Json.Int spec.horizon_ms);
      ( "protocols",
        Json.List
          (List.map (fun p -> Json.String (protocol_label p)) spec.protocols)
      );
      ("scenarios", Json.List (List.map scenario_to_json spec.scenarios));
      ("variants", Json.List (List.map variant_to_json spec.variants));
    ]

let scenario_of_json j =
  let* kind = Result.bind (Json.field "kind" j) Json.get_string in
  let* size = Result.bind (Json.field "size" j) Json.get_int in
  let* load = Json.field_or "load" ~default:0.3 Json.get_float j in
  let* dw = Json.field_or "deadline_windows" ~default:2.0 Json.get_float j in
  let* fanout = Json.field_or "fanout" ~default:1 Json.get_int j in
  Ok
    {
      sc_kind = kind;
      sc_size = size;
      sc_load = load;
      sc_deadline_windows = dw;
      sc_fanout = fanout;
    }

let variant_of_json j =
  let* fault = Json.field_or "fault_rate" ~default:0. Json.get_float j in
  let* burst = Json.field_or "burst_bits" ~default:0 Json.get_int j in
  let* theta = Json.field_or "theta" ~default:0 Json.get_int j in
  let* plan = Json.field_opt "fault_plan" Fault_plan.spec_of_json j in
  Ok
    {
      v_fault_rate = fault;
      v_burst_bits = burst;
      v_theta = theta;
      v_fault_plan = plan;
    }

let of_json j =
  let* name = Result.bind (Json.field "name" j) Json.get_string in
  let* base_seed = Json.field_or "base_seed" ~default:1 Json.get_int j in
  let* replicates = Json.field_or "replicates" ~default:1 Json.get_int j in
  let* horizon_ms = Json.field_or "horizon_ms" ~default:10 Json.get_int j in
  let* protocols =
    Result.bind (Json.field "protocols" j)
      (Json.list_of (fun v ->
           Result.bind (Json.get_string v) protocol_of_string))
  in
  let* scenarios =
    Result.bind (Json.field "scenarios" j) (Json.list_of scenario_of_json)
  in
  let* variants =
    Json.field_or "variants" ~default:[ default_variant ]
      (Json.list_of variant_of_json) j
  in
  Ok { name; base_seed; replicates; horizon_ms; protocols; scenarios; variants }

let load_file path =
  Json.load_file path (fun j ->
      let* spec = of_json j in
      Result.map (fun () -> spec) (validate spec))

let hash spec = Digest.to_hex (Digest.string (Json.to_string (to_json spec)))

(* ---------------------------------------------------------------- *)
(* Shipped campaigns.  Scenario sizes track [Scenarios.all] (the      *)
(* sizes the ddcr_lint gate keeps green) scaled down where runtime    *)
(* matters.                                                           *)

let scenario ?(load = 0.3) ?(deadline_windows = 2.0) kind size =
  {
    sc_kind = kind;
    sc_size = size;
    sc_load = load;
    sc_deadline_windows = deadline_windows;
    sc_fanout = 1;
  }

let topo_scenario ~segments ~fanout ~load ~deadline_windows =
  {
    sc_kind = "topo";
    sc_size = segments;
    sc_load = load;
    sc_deadline_windows = deadline_windows;
    sc_fanout = fanout;
  }

let smoke =
  {
    name = "smoke";
    base_seed = 7;
    replicates = 1;
    horizon_ms = 1;
    protocols = [ Ddcr; Tdma ];
    scenarios = [ scenario "trading" 3; scenario "videoconference" 3 ];
    variants = [ default_variant ];
  }

let campaign_v1 =
  {
    name = "campaign_v1";
    base_seed = 42;
    replicates = 2;
    horizon_ms = 2;
    protocols = all_protocols;
    scenarios =
      [
        scenario "trading" 4;
        scenario "videoconference" 6;
        scenario "uniform" 8 ~load:0.3 ~deadline_windows:2.0;
      ];
    variants = [ default_variant; { default_variant with v_fault_rate = 0.05 } ];
  }

let load_sweep =
  {
    name = "load_sweep";
    base_seed = 42;
    replicates = 3;
    horizon_ms = 10;
    protocols = all_protocols;
    scenarios =
      List.map
        (fun load -> scenario "uniform" 8 ~load ~deadline_windows:2.0)
        [ 0.1; 0.3; 0.5; 0.7; 0.85; 0.95 ];
    variants = [ default_variant ];
  }

let fault_sweep =
  (* Robustness sweep: CSMA/DDCR only (the only protocol with
     divergence recovery) across every fault-plan axis — clean
     reference, i.i.d. noise at two rates, Gilbert–Elliott bursts,
     misperception, a scheduled crash/rejoin, and everything at once.
     Crash windows sit inside the 5 ms horizon so stations rejoin. *)
  let ms = 1_000_000 in
  let planned plan = { default_variant with v_fault_plan = Some plan } in
  {
    name = "fault_sweep";
    base_seed = 11;
    replicates = 2;
    horizon_ms = 5;
    protocols = [ Ddcr ];
    scenarios = [ scenario "videoconference" 4; scenario "trading" 3 ];
    variants =
      [
        default_variant;
        planned (Fault_plan.iid 0.05);
        planned (Fault_plan.iid 0.15);
        planned
          (Fault_plan.gilbert_elliott ~p_enter:0.02 ~p_exit:0.2
             ~rate_good:0.01 ~rate_bad:0.8);
        planned (Fault_plan.misperceive 0.02);
        planned (Fault_plan.crash ~source:1 ~from_:(1 * ms) ~until:(2 * ms));
        planned
          (Fault_plan.compose
             (Fault_plan.compose
                (Fault_plan.gilbert_elliott ~p_enter:0.02 ~p_exit:0.2
                   ~rate_good:0.01 ~rate_bad:0.8)
                (Fault_plan.misperceive 0.02))
             (Fault_plan.crash ~source:2 ~from_:(2 * ms) ~until:(3 * ms)));
      ];
  }

let topology_sweep =
  (* Federation sweep: segment count × fan-out over uniform trees of
     4-source segments (Grid builds them with Rtnet_topology.Topo.tree).
     The load/deadline point is chosen so every cell passes end-to-end
     admission — the golden baseline then pins "admitted topology, zero
     unexcused misses" across the grid. *)
  {
    name = "topology_sweep";
    base_seed = 23;
    replicates = 1;
    horizon_ms = 5;
    protocols = [ Topo ];
    scenarios =
      [
        topo_scenario ~segments:3 ~fanout:2 ~load:0.1 ~deadline_windows:16.0;
        topo_scenario ~segments:5 ~fanout:2 ~load:0.1 ~deadline_windows:16.0;
        topo_scenario ~segments:7 ~fanout:3 ~load:0.1 ~deadline_windows:16.0;
      ];
    variants = [ default_variant ];
  }

let topology_fault_sweep =
  (* Degraded-mode sweep: the admitted 3-segment tree from
     topology_sweep's first point, clean and under a scheduled crash
     of the root's inbound bridge station (station 4 of seg0 = bridge
     br1).  Grid attaches the plan to the tree's root segment; the
     golden baseline pins the failover behaviour — held hand-offs,
     catch-up drain at revival, miss attribution — byte-for-byte. *)
  let ms = 1_000_000 in
  {
    name = "topology_fault_sweep";
    base_seed = 29;
    replicates = 1;
    horizon_ms = 5;
    protocols = [ Topo ];
    scenarios =
      [ topo_scenario ~segments:3 ~fanout:2 ~load:0.1 ~deadline_windows:16.0 ];
    variants =
      [
        default_variant;
        {
          default_variant with
          v_fault_plan =
            Some (Fault_plan.crash ~source:4 ~from_:(1 * ms) ~until:(2 * ms));
        };
      ];
  }

let perf_v1 =
  (* DDCR against TDMA on two scenarios at a fixed size/load point,
     single replicate — small enough for `make campaign-smoke`.  Its
     deterministic cell metrics are gated by `ddcr_campaign compare
     perf_v1 --baseline BENCH_perf.json`; nothing else pins these two
     protocols on these scenarios.  Speed is measured by perfbench, not
     here. *)
  {
    name = "perf_v1";
    base_seed = 31;
    replicates = 1;
    horizon_ms = 5;
    protocols = [ Ddcr; Tdma ];
    scenarios =
      [
        scenario "videoconference" 6;
        scenario "uniform" 8 ~load:0.5 ~deadline_windows:2.0;
      ];
    variants = [ default_variant ];
  }

let builtins =
  [
    ("smoke", smoke);
    ("campaign_v1", campaign_v1);
    ("load_sweep", load_sweep);
    ("fault_sweep", fault_sweep);
    ("topology_sweep", topology_sweep);
    ("topology_fault_sweep", topology_fault_sweep);
    ("perf_v1", perf_v1);
  ]

let find_builtin name = List.assoc_opt name builtins
