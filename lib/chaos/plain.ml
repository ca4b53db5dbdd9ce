module Json = Rtnet_util.Json
module Spec = Rtnet_campaign.Spec
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Fault_plan = Rtnet_channel.Fault_plan
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Ddcr_trace = Rtnet_core.Ddcr_trace
module Oracle = Rtnet_analysis.Oracle
module Trace_check = Rtnet_analysis.Trace_check

let ( let* ) = Result.bind

type env = {
  cf_scenario : Spec.scenario;
  cf_horizon_ms : int;
  cf_params : Ddcr_params.t option;
}

type candidate = {
  cd_plan : Fault_plan.spec;
  cd_trace_seed : int;
  cd_fault_seed : int;
}

type space = Generator.budget
type atom = Fault_plan.spec

let tag = "chaos"
let version = 2
let search_label = "search"
let unit = "events"

let max_trace_messages = 1_000_000
let max_horizon_ms = 60_000

let messages_bound ~horizon_ms rates =
  let horizon = float_of_int horizon_ms *. 1e6 in
  List.fold_left
    (fun acc (a, w) ->
      acc +. (float_of_int a *. Float.ceil (horizon /. float_of_int w)))
    0. rates

let check_env env =
  let* inst = Spec.instance_result env.cf_scenario in
  if env.cf_horizon_ms < 1 then Error "horizon_ms < 1"
  else if env.cf_horizon_ms > max_horizon_ms then
    Error (Printf.sprintf "horizon_ms > %d" max_horizon_ms)
  else
    let bound =
      messages_bound ~horizon_ms:env.cf_horizon_ms
        (List.map
           (fun c -> (c.Message.cls_burst, c.Message.cls_window))
           (Instance.classes inst))
    in
    if bound > float_of_int max_trace_messages then
      Error
        (Printf.sprintf
           "the trace may hold %.3g messages, more than the %d a plain \
            environment allows"
           bound max_trace_messages)
    else Ok env

let sample env budget ~seed ~index =
  let inst = Spec.instance env.cf_scenario in
  {
    cd_plan =
      Generator.sample ~budget ~seed ~index
        ~horizon:(env.cf_horizon_ms * 1_000_000)
        ~sources:inst.Instance.num_sources;
    cd_trace_seed = Subject.trace_seed ~seed ~index;
    cd_fault_seed = Subject.fault_seed ~seed ~index;
  }

let run ?postmortem:_ env cd =
  let* inst = Spec.instance_result env.cf_scenario in
  let horizon = env.cf_horizon_ms * 1_000_000 in
  let trace = Instance.trace inst ~seed:cd.cd_trace_seed ~horizon in
  let params =
    match env.cf_params with Some p -> p | None -> Ddcr_params.default inst
  in
  let monitor = Trace_check.monitor ~workload:trace () in
  let sink = Ddcr_trace.sink (Trace_check.observe monitor) in
  let plan = Fault_plan.create ~horizon ~seed:cd.cd_fault_seed cd.cd_plan in
  let outcome = Ddcr.run_trace ~sink ~plan params inst trace ~horizon in
  let verdict = Oracle.classify (Trace_check.finish_run ~outcome monitor) in
  Ok
    {
      Subject.rp_verdict = verdict;
      rp_fingerprint = Subject.fingerprint_outcome outcome;
    }

let atoms cd = Fault_plan.atoms cd.cd_plan
let with_atoms cd atoms = { cd with cd_plan = Fault_plan.merge atoms }

let refine ~check cd =
  {
    cd with
    cd_plan =
      Shrink.refine_plan
        ~check:(fun sp -> check { cd with cd_plan = sp })
        cd.cd_plan;
  }

let describe cd = Fault_plan.label cd.cd_plan

let to_json env cd =
  [
    ("scenario", Spec.scenario_to_json env.cf_scenario);
    ("horizon_ms", Json.Int env.cf_horizon_ms);
  ]
  @ (match env.cf_params with
    | None -> []
    | Some p -> [ ("params", Ddcr_params.to_json p) ])
  @ [
      ("plan", Fault_plan.spec_to_json cd.cd_plan);
      ("trace_seed", Json.Int cd.cd_trace_seed);
      ("fault_seed", Json.Int cd.cd_fault_seed);
    ]

let of_json ~version j =
  let* scenario = Result.bind (Json.field "scenario" j) Spec.scenario_of_json in
  let* horizon_ms = Result.bind (Json.field "horizon_ms" j) Json.get_int in
  let* params =
    match Json.member "params" j with
    | None | Some Json.Null -> Ok None
    | Some pj when version >= 2 ->
      Result.map Option.some
        (Result.map_error (fun e -> "params: " ^ e) (Ddcr_params.of_json pj))
    | Some _ -> Error "params override requires chaos repro version >= 2"
  in
  let* env =
    check_env
      { cf_scenario = scenario; cf_horizon_ms = horizon_ms; cf_params = params }
  in
  let* plan = Result.bind (Json.field "plan" j) Fault_plan.spec_of_json in
  let* inst = Spec.instance_result scenario in
  let* () =
    Result.map_error
      (fun e -> "plan: " ^ e)
      (let* () = Fault_plan.validate ~horizon:(horizon_ms * 1_000_000) plan in
       Fault_plan.check_stations ~stations:inst.Instance.num_sources plan)
  in
  let* trace_seed = Result.bind (Json.field "trace_seed" j) Json.get_int in
  let* fault_seed = Result.bind (Json.field "fault_seed" j) Json.get_int in
  Ok
    ( env,
      { cd_plan = plan; cd_trace_seed = trace_seed; cd_fault_seed = fault_seed }
    )

(* -------------------- search configuration files -------------------- *)

let config_to_json (c : (env, space) Search.config) =
  Json.Obj
    ([
       ("scenario", Spec.scenario_to_json c.Search.s_env.cf_scenario);
       ("horizon_ms", Json.Int c.Search.s_env.cf_horizon_ms);
       ("seed", Json.Int c.Search.s_seed);
       ("candidates", Json.Int c.Search.s_count);
       ("budget", Generator.budget_to_json c.Search.s_space);
       ("jobs", Json.Int c.Search.s_jobs);
     ]
    @ (match c.Search.s_watchdog_s with
      | None -> []
      | Some w -> [ ("watchdog_s", Json.Float w) ])
    @ [
        ("retries", Json.Int c.Search.s_retries);
        ("backoff_s", Json.Float c.Search.s_backoff_s);
      ]
    @
    match c.Search.s_wall_budget_s with
    | None -> []
    | Some w -> [ ("wall_budget_s", Json.Float w) ])

let config_of_json j =
  let* scenario = Result.bind (Json.field "scenario" j) Spec.scenario_of_json in
  let* horizon_ms = Result.bind (Json.field "horizon_ms" j) Json.get_int in
  let* env =
    check_env
      { cf_scenario = scenario; cf_horizon_ms = horizon_ms; cf_params = None }
  in
  let* budget =
    Json.field_or "budget" ~default:Generator.default_budget
      Generator.budget_of_json j
  in
  let d = Search.default_config env budget in
  let* seed = Json.field_or "seed" ~default:d.s_seed Json.get_int j in
  let* count = Json.field_or "candidates" ~default:d.s_count Json.get_int j in
  let* jobs = Json.field_or "jobs" ~default:d.s_jobs Json.get_int j in
  let* watchdog_s = Json.field_opt "watchdog_s" Json.get_float j in
  let* retries = Json.field_or "retries" ~default:d.s_retries Json.get_int j in
  let* backoff_s =
    Json.field_or "backoff_s" ~default:d.s_backoff_s Json.get_float j
  in
  let* wall_budget_s = Json.field_opt "wall_budget_s" Json.get_float j in
  if count < 1 then Error "candidates < 1"
  else if jobs < 1 then Error "jobs < 1"
  else
    Ok
      {
        d with
        Search.s_seed = seed;
        s_count = count;
        s_jobs = jobs;
        s_watchdog_s = watchdog_s;
        s_retries = retries;
        s_backoff_s = backoff_s;
        s_wall_budget_s = wall_budget_s;
      }

let load_config path = Json.load_file path config_of_json
