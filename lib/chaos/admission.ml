module Json = Rtnet_util.Json
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Oracle = Rtnet_analysis.Oracle
module Run = Rtnet_stats.Run
module Request = Rtnet_admit.Request
module Engine = Rtnet_admit.Engine
module Journal = Rtnet_admit.Journal

let ( let* ) = Result.bind

type env = {
  an_phy : string;
  an_sources : int;
  an_params : Ddcr_params.t;
  an_horizon_ms : int;
}

type churn = { ch_pool : int; ch_requests : int }

type candidate = {
  ar_requests : Request.t list;
  ar_trace_seed : int;
}

type space = churn
type atom = Request.t

let tag = "admit_chaos"
let version = 1
let search_label = "admit search"
let unit = "requests"

let sample env churn ~seed ~index =
  {
    ar_requests =
      Generator.sample_churn ~seed ~index ~sources:env.an_sources
        ~pool:churn.ch_pool ~requests:churn.ch_requests;
    ar_trace_seed = Subject.trace_seed ~seed ~index;
  }

let engine env =
  let* phy = Request.phy_of_name env.an_phy in
  Engine.create ~phy ~num_sources:env.an_sources ~params:env.an_params

(* The first class the run actually failed: completions that finished
   late, then outright drops, then messages still queued though their
   deadline fell inside the horizon — the same accounting order
   [Run.metrics] uses for [deadline_misses]. *)
let first_missed_flow (outcome : Run.outcome) =
  let late =
    List.find_map
      (fun c ->
        if Run.missed c then Some c.Run.c_msg.Message.cls.Message.cls_name
        else None)
      outcome.Run.completions
  in
  let due m = Message.abs_deadline m <= outcome.Run.horizon in
  let first_due msgs =
    List.find_map
      (fun m -> if due m then Some m.Message.cls.Message.cls_name else None)
      msgs
  in
  match late with
  | Some f -> Some f
  | None -> (
    match first_due outcome.Run.dropped with
    | Some f -> Some f
    | None -> first_due outcome.Run.unfinished)

let simulate_admitted eng ~trace_seed ~horizon_ms =
  let* inst =
    Result.map_error
      (fun e -> "admitted set not instantiable: " ^ e)
      (Engine.instance eng)
  in
  let horizon = horizon_ms * 1_000_000 in
  let trace = Instance.trace inst ~seed:trace_seed ~horizon in
  let outcome = Ddcr.run_trace (Engine.params eng) inst trace ~horizon in
  let misses = (Run.metrics outcome).Run.deadline_misses in
  Ok
    ( outcome,
      if misses = 0 then Oracle.Pass
      else
        Oracle.Admission_violation
          {
            flow = Option.value ~default:"?" (first_missed_flow outcome);
            misses;
          } )

let run ?postmortem:_ env cd =
  let* eng =
    Result.map_error (fun e -> "admission setup: " ^ e) (engine env)
  in
  (* Decide the whole churn stream first; the decision lines are part of
     the fingerprint, so replay asserts the decisions themselves, not
     just the simulation outcome. *)
  let lines =
    List.mapi
      (fun seq req ->
        let decision = Engine.decide eng req in
        Journal.record_line
          { Journal.jr_seq = seq; jr_request = req; jr_decision = decision })
      cd.ar_requests
  in
  let decisions = String.concat "\n" lines in
  let fingerprint suffix =
    Digest.to_hex (Digest.string ("admit:" ^ decisions ^ ":" ^ suffix))
  in
  if Engine.size eng = 0 then
    (* Nothing admitted, nothing to violate. *)
    Ok { Subject.rp_verdict = Oracle.Pass; rp_fingerprint = fingerprint "empty" }
  else
    let* outcome, verdict =
      simulate_admitted eng ~trace_seed:cd.ar_trace_seed
        ~horizon_ms:env.an_horizon_ms
    in
    Ok
      {
        Subject.rp_verdict = verdict;
        rp_fingerprint = fingerprint (Subject.fingerprint_outcome outcome);
      }

let atoms cd = cd.ar_requests
let with_atoms cd requests = { cd with ar_requests = requests }
let refine ~check:_ cd = cd
let describe cd = Printf.sprintf "%d request(s)" (List.length cd.ar_requests)

let to_json env cd =
  [
    ( "admit",
      Json.Obj
        [
          ("phy", Json.String env.an_phy);
          ("sources", Json.Int env.an_sources);
          ("params", Ddcr_params.to_json env.an_params);
          ("horizon_ms", Json.Int env.an_horizon_ms);
        ] );
    ("requests", Json.List (List.map Request.to_json cd.ar_requests));
    ("trace_seed", Json.Int cd.ar_trace_seed);
  ]

let check_env env =
  if env.an_sources < 1 then Error "sources < 1"
  else if env.an_horizon_ms < 1 then Error "horizon_ms < 1"
  else if env.an_horizon_ms > Plain.max_horizon_ms then
    Error (Printf.sprintf "horizon_ms > %d" Plain.max_horizon_ms)
  else
    (* The environment must reconstruct: unknown phy names and
       parameters invalid for the source count fail here, not at replay
       time. *)
    match engine env with
    | Ok _ -> Ok env
    | Error e -> Error ("admit: " ^ e)

let env_of_json j =
  let* phy = Result.bind (Json.field "phy" j) Json.get_string in
  let* sources = Result.bind (Json.field "sources" j) Json.get_int in
  let* params = Result.bind (Json.field "params" j) Ddcr_params.of_json in
  let* horizon_ms = Result.bind (Json.field "horizon_ms" j) Json.get_int in
  check_env
    {
      an_phy = phy;
      an_sources = sources;
      an_params = params;
      an_horizon_ms = horizon_ms;
    }

let of_json ~version:_ j =
  let* env = Result.bind (Json.field "admit" j) env_of_json in
  let* reqs = Result.bind (Json.field "requests" j) Json.get_list in
  let* requests =
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | r :: tl -> (
        match Request.of_json r with
        | Ok req -> go (i + 1) (req :: acc) tl
        | Error e -> Error (Printf.sprintf "requests: %d: %s" i e))
    in
    go 0 [] reqs
  in
  (* Whatever is admitted is among the added or modified flows; one
     with a non-positive window or burst is never admitted. *)
  let bound =
    Plain.messages_bound ~horizon_ms:env.an_horizon_ms
      (List.filter_map
         (function
           | (Request.Add f | Request.Modify f)
             when f.Request.fl_window > 0 && f.Request.fl_burst > 0 ->
             Some (f.Request.fl_burst, f.Request.fl_window)
           | _ -> None)
         requests)
  in
  let* () =
    if bound > float_of_int Plain.max_trace_messages then
      Error
        (Printf.sprintf
           "the requests may release %.3g messages, more than the %d an \
            admission artifact allows"
           bound Plain.max_trace_messages)
    else Ok ()
  in
  let* trace_seed = Result.bind (Json.field "trace_seed" j) Json.get_int in
  Ok (env, { ar_requests = requests; ar_trace_seed = trace_seed })
