module Json = Rtnet_util.Json
module Fault_plan = Rtnet_channel.Fault_plan
module Oracle = Rtnet_analysis.Oracle
module Topo = Rtnet_topology.Topo
module Admit = Rtnet_topology.Admit
module Driver = Rtnet_topology.Driver
module Decompose = Rtnet_core.Decompose
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Flight = Rtnet_obs.Flight
module Postmortem = Rtnet_obs.Postmortem

let ( let* ) = Result.bind

type env = {
  tc_segments : int;
  tc_fanout : int;
  tc_sources : int;
  tc_load : float;
  tc_deadline_windows : float;
  tc_horizon_ms : int;
}

type candidate = {
  td_plans : (string * Fault_plan.spec) list;
  td_trace_seed : int;
  td_fault_seed : int;
}

type space = Generator.budget
type atom = string * Fault_plan.spec

let tag = "topo_chaos"
let version = 1
let search_label = "topo search"
let unit = "events"

let tree env =
  Topo.tree ~name:"chaos" ~segments:env.tc_segments ~fanout:env.tc_fanout
    ~sources:env.tc_sources ~load:env.tc_load
    ~deadline_windows:env.tc_deadline_windows ()

let sample env budget ~seed ~index =
  {
    td_plans =
      Generator.sample_topo ~budget ~seed ~index
        ~horizon:(env.tc_horizon_ms * 1_000_000)
        (tree env);
    td_trace_seed = Subject.trace_seed ~seed ~index;
    td_fault_seed = Subject.fault_seed ~seed ~index;
  }

let run ?postmortem env cd =
  let horizon = env.tc_horizon_ms * 1_000_000 in
  let prefix p = Result.map_error (fun e -> p ^ e) in
  let* faulty =
    prefix "topology fault plan: " (Topo.with_faults (tree env) cd.td_plans)
  in
  let* admitted =
    prefix "admission: " (Admit.elaborate ~policy:Decompose.Slack_weighted faulty)
  in
  let flights = ref [] in
  let sink_for =
    Option.map
      (fun _ ~index ~segment ->
        let f = Flight.create ~segment () in
        flights := (index, f) :: !flights;
        Flight.sink f)
      postmortem
  in
  let* res =
    prefix "driver: "
      (Driver.run_seeded ?sink_for admitted ~seed:cd.td_trace_seed
         ~fault_seed:cd.td_fault_seed ~horizon)
  in
  let verdict = Oracle.classify_topo res in
  Option.iter
    (fun emit ->
      (* The trigger comes from the driver's own miss accounting; when
         the oracle fired on other evidence, from its verdict. *)
      let trigger =
        match Postmortem.trigger_of_result res with
        | Some t -> t
        | None -> Postmortem.Verdict (Oracle.label verdict)
      in
      emit
        (Postmortem.build ~trigger ~topology:faulty.Topo.tp_name
           ~seed:cd.td_trace_seed ~fault_seed:cd.td_fault_seed ~horizon
           ~result:res
           ~flights:(List.map snd (List.sort compare !flights))
           ()))
    postmortem;
  (* The driver's fingerprint pins the completion schedules; the
     verdict rendering pins the end-to-end classification — both must
     survive replay byte-identically. *)
  Ok
    {
      Subject.rp_verdict = verdict;
      rp_fingerprint =
        Digest.to_hex
          (Digest.string
             ("topo:" ^ res.Driver.r_fingerprint ^ ":"
             ^ Json.to_string (Oracle.to_json verdict)));
    }

let atoms cd =
  List.concat_map
    (fun (seg, sp) -> List.map (fun a -> (seg, a)) (Fault_plan.atoms sp))
    cd.td_plans

(* Rebuilding keeps the original segment order, so the reduced plan set
   composes onto the topology deterministically; segments left without
   atoms drop out. *)
let with_atoms cd pairs =
  {
    cd with
    td_plans =
      List.filter_map
        (fun (seg, _) ->
          match
            List.filter_map
              (fun (s, a) -> if s = seg then Some a else None)
              pairs
          with
          | [] -> None
          | atoms -> Some (seg, Fault_plan.merge atoms))
        cd.td_plans;
  }

let refine ~check cd =
  List.fold_left
    (fun cd (seg, _) ->
      let with_plan sp =
        {
          cd with
          td_plans =
            List.map (fun (s, p) -> (s, if s = seg then sp else p)) cd.td_plans;
        }
      in
      with_plan
        (Shrink.refine_plan
           ~check:(fun sp -> check (with_plan sp))
           (List.assoc seg cd.td_plans)))
    cd cd.td_plans

let describe cd =
  String.concat "; "
    (List.map (fun (n, sp) -> n ^ ":" ^ Fault_plan.label sp) cd.td_plans)

let env_to_json env =
  Json.Obj
    [
      ("segments", Json.Int env.tc_segments);
      ("fanout", Json.Int env.tc_fanout);
      ("sources", Json.Int env.tc_sources);
      ("load", Json.Float env.tc_load);
      ("deadline_windows", Json.Float env.tc_deadline_windows);
      ("horizon_ms", Json.Int env.tc_horizon_ms);
    ]

let check_env env =
  let positive x = Float.is_finite x && x > 0. in
  let cap = float_of_int Plain.max_trace_messages in
  let stations = float_of_int env.tc_segments *. float_of_int env.tc_sources in
  if env.tc_segments < 2 then Error "segments < 2"
  else if env.tc_fanout < 1 then Error "fanout < 1"
  else if env.tc_sources < 1 then Error "sources < 1"
  else if not (positive env.tc_load) then Error "load must be finite and > 0"
  else if not (positive env.tc_deadline_windows) then
    Error "deadline_windows must be finite and > 0"
  else if env.tc_horizon_ms < 1 then Error "horizon_ms < 1"
  else if env.tc_horizon_ms > Plain.max_horizon_ms then
    Error (Printf.sprintf "horizon_ms > %d" Plain.max_horizon_ms)
  else if stations > cap then
    Error
      (Printf.sprintf
         "the tree has %.3g stations, more than the %d a topology \
          environment allows"
         stations Plain.max_trace_messages)
  else
    (* Every segment carries the same workload, so the sum of the
       segments' message bounds is [segments] times one segment's:
       priced on a one-segment tree before the whole tree is built. *)
    let seg = List.hd (tree { env with tc_segments = 1 }).Topo.tp_segments in
    let bound =
      float_of_int env.tc_segments
      *. Plain.messages_bound ~horizon_ms:env.tc_horizon_ms
           (List.map
              (fun c -> (c.Message.cls_burst, c.Message.cls_window))
              (Instance.classes seg.Topo.sg_instance))
    in
    if bound > cap then
      Error
        (Printf.sprintf
           "the tree may release %.3g messages, more than the %d a \
            topology environment allows"
           bound Plain.max_trace_messages)
    else Ok env

let env_of_json j =
  let* segments = Result.bind (Json.field "segments" j) Json.get_int in
  let* fanout = Result.bind (Json.field "fanout" j) Json.get_int in
  let* sources = Result.bind (Json.field "sources" j) Json.get_int in
  let* load = Result.bind (Json.field "load" j) Json.get_float in
  let* deadline_windows =
    Result.bind (Json.field "deadline_windows" j) Json.get_float
  in
  let* horizon_ms = Result.bind (Json.field "horizon_ms" j) Json.get_int in
  check_env
    {
      tc_segments = segments;
      tc_fanout = fanout;
      tc_sources = sources;
      tc_load = load;
      tc_deadline_windows = deadline_windows;
      tc_horizon_ms = horizon_ms;
    }

let to_json env cd =
  [
    ("topology", env_to_json env);
    ( "plans",
      Json.Obj
        (List.map (fun (n, sp) -> (n, Fault_plan.spec_to_json sp)) cd.td_plans)
    );
    ("trace_seed", Json.Int cd.td_trace_seed);
    ("fault_seed", Json.Int cd.td_fault_seed);
  ]

let of_json ~version:_ j =
  let* env = Result.bind (Json.field "topology" j) env_of_json in
  let horizon = env.tc_horizon_ms * 1_000_000 in
  let plan_of_json name pj =
    Result.map_error
      (fun e -> Printf.sprintf "plans: %s: %s" name e)
      (let* sp = Fault_plan.spec_of_json pj in
       let* () = Fault_plan.validate ~horizon sp in
       Ok sp)
  in
  let* plans =
    match Json.member "plans" j with
    | Some (Json.Obj _ as pj) -> Json.obj_of plan_of_json pj
    | Some _ -> Error "plans: expected an object"
    | None -> Error "missing plans"
  in
  (* The plan set must attach to the tree the environment describes —
     a renamed segment would otherwise fail only at replay time. *)
  let* () =
    match Topo.with_faults (tree env) plans with
    | Ok t -> (
      match Topo.fault_errors t with
      | [] -> Ok ()
      | e :: _ -> Error ("plans: " ^ e))
    | Error e -> Error ("plans: " ^ e)
  in
  let* trace_seed = Result.bind (Json.field "trace_seed" j) Json.get_int in
  let* fault_seed = Result.bind (Json.field "fault_seed" j) Json.get_int in
  Ok
    ( env,
      { td_plans = plans; td_trace_seed = trace_seed; td_fault_seed = fault_seed }
    )
