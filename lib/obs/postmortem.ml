module Json = Rtnet_util.Json
module Driver = Rtnet_topology.Driver

let ( let* ) = Result.bind

type trigger = Chain_miss | Bridge_overflow | Verdict of string

let schema_version = 1

let trigger_of_result (r : Driver.result) =
  let v = r.Driver.r_verdict in
  if v.Driver.v_bridge_drops <> [] then Some Bridge_overflow
  else if v.Driver.v_misses <> [] || v.Driver.v_shed > 0 then Some Chain_miss
  else None

let trigger_to_string = function
  | Chain_miss -> "chain_miss"
  | Bridge_overflow -> "bridge_overflow"
  | Verdict label -> "verdict:" ^ label

let trigger_of_string s =
  match s with
  | "chain_miss" -> Ok Chain_miss
  | "bridge_overflow" -> Ok Bridge_overflow
  | _ ->
    if String.length s > 8 && String.sub s 0 8 = "verdict:" then
      Ok (Verdict (String.sub s 8 (String.length s - 8)))
    else Error (Printf.sprintf "unknown postmortem trigger %S" s)

let pp_trigger fmt t = Format.pp_print_string fmt (trigger_to_string t)

type t = {
  pm_trigger : trigger;
  pm_topology : string;
  pm_seed : int;
  pm_fault_seed : int;
  pm_horizon : int;
  pm_fingerprint : string;
  pm_verdict : Json.t;
  pm_events : Json.t;
  pm_chains : Json.t;
  pm_flight : Json.t;
  pm_repro : (string * string) option;
}

(* -------------------- driver encodings -------------------- *)

let miss_to_json (m : Driver.miss) =
  Json.Obj
    [
      ("flow", Json.String m.Driver.ms_flow);
      ("uid", Json.Int m.Driver.ms_uid);
      ("t0", Json.Int m.Driver.ms_t0);
      ("deadline", Json.Int m.Driver.ms_deadline);
      ( "finish",
        match m.Driver.ms_finish with
        | Some f -> Json.Int f
        | None -> Json.Null );
      ("hop", Json.String m.Driver.ms_hop);
      ("hop_index", Json.Int m.Driver.ms_hop_index);
      ( "fault",
        match m.Driver.ms_fault with
        | Some f -> Json.String f
        | None -> Json.Null );
    ]

let drop_to_json (d : Driver.bridge_drop) =
  Json.Obj
    [
      ("bridge", Json.String d.Driver.bd_bridge);
      ("flow", Json.String d.Driver.bd_flow);
      ("uid", Json.Int d.Driver.bd_uid);
      ("at", Json.Int d.Driver.bd_at);
      ("deadline", Json.Int d.Driver.bd_deadline);
    ]

let verdict_to_json (v : Driver.verdict) =
  Json.Obj
    [
      ("messages", Json.Int v.Driver.v_messages);
      ("delivered", Json.Int v.Driver.v_delivered);
      ("met", Json.Int v.Driver.v_met);
      ("in_flight", Json.Int v.Driver.v_in_flight);
      ("shed", Json.Int v.Driver.v_shed);
      ("bridge_drops", Json.List (List.map drop_to_json v.Driver.v_bridge_drops));
      ("misses", Json.List (List.map miss_to_json v.Driver.v_misses));
    ]

let event_to_json = function
  | Driver.Degraded { dg_bridge; dg_segment; dg_from; dg_until } ->
    Json.Obj
      [
        ("ev", Json.String "degraded");
        ("bridge", Json.String dg_bridge);
        ("segment", Json.String dg_segment);
        ("from", Json.Int dg_from);
        ("until", Json.Int dg_until);
      ]
  | Driver.Shed { sh_bridge; sh_flow; sh_uid; sh_at; sh_criticality } ->
    Json.Obj
      [
        ("ev", Json.String "shed");
        ("bridge", Json.String sh_bridge);
        ("flow", Json.String sh_flow);
        ("uid", Json.Int sh_uid);
        ("at", Json.Int sh_at);
        ("criticality", Json.Int sh_criticality);
      ]
  | Driver.Restored { rs_bridge; rs_at; rs_backlog } ->
    Json.Obj
      [
        ("ev", Json.String "restored");
        ("bridge", Json.String rs_bridge);
        ("at", Json.Int rs_at);
        ("backlog", Json.Int rs_backlog);
      ]

let hop_to_json (h : Driver.hop_record) =
  Json.Obj
    [
      ("hop", Json.Int h.Driver.hr_index);
      ("segment", Json.String h.Driver.hr_segment);
      ("arrival", Json.Int h.Driver.hr_arrival);
      ("start", Json.Int h.Driver.hr_start);
      ("finish", Json.Int h.Driver.hr_finish);
      ("source", Json.Int h.Driver.hr_source);
    ]

let chain_to_json (c : Driver.chain_record) =
  Json.Obj
    [
      ("flow", Json.String c.Driver.cr_flow);
      ("uid", Json.Int c.Driver.cr_uid);
      ("t0", Json.Int c.Driver.cr_t0);
      ("deadline", Json.Int c.Driver.cr_deadline);
      ( "fault",
        match c.Driver.cr_fault with
        | Some f -> Json.String f
        | None -> Json.Null );
      ("shed", Json.Bool c.Driver.cr_shed);
      ("dropped", Json.Bool c.Driver.cr_dropped);
      ("hops", Json.List (List.map hop_to_json c.Driver.cr_hops));
    ]

(* -------------------- build / codec -------------------- *)

let failing (r : Driver.result) =
  let v = r.Driver.r_verdict in
  let missed = Hashtbl.create 16 in
  List.iter
    (fun (m : Driver.miss) ->
      Hashtbl.replace missed (m.Driver.ms_flow, m.Driver.ms_uid) ())
    v.Driver.v_misses;
  List.filter
    (fun (c : Driver.chain_record) ->
      c.Driver.cr_shed || c.Driver.cr_dropped
      || c.Driver.cr_fault <> None
      || Hashtbl.mem missed (c.Driver.cr_flow, c.Driver.cr_uid))
    r.Driver.r_chains

let build ~trigger ~topology ~seed ~fault_seed ~horizon
    ~(result : Driver.result) ~flights ?repro () =
  {
    pm_trigger = trigger;
    pm_topology = topology;
    pm_seed = seed;
    pm_fault_seed = fault_seed;
    pm_horizon = horizon;
    pm_fingerprint = result.Driver.r_fingerprint;
    pm_verdict = verdict_to_json result.Driver.r_verdict;
    pm_events = Json.List (List.map event_to_json result.Driver.r_events);
    pm_chains = Json.List (List.map chain_to_json (failing result));
    pm_flight = Json.List (List.map Flight.to_json flights);
    pm_repro = repro;
  }

let to_json t =
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("kind", Json.String "rtnet-postmortem");
       ("trigger", Json.String (trigger_to_string t.pm_trigger));
       ("topology", Json.String t.pm_topology);
       ("seed", Json.Int t.pm_seed);
       ("fault_seed", Json.Int t.pm_fault_seed);
       ("horizon", Json.Int t.pm_horizon);
       ("fingerprint", Json.String t.pm_fingerprint);
       ("verdict", t.pm_verdict);
       ("events", t.pm_events);
       ("chains", t.pm_chains);
       ("flight", t.pm_flight);
     ]
    @
    match t.pm_repro with
    | None -> []
    | Some (note, fp) ->
      [
        ( "repro",
          Json.Obj
            [ ("note", Json.String note); ("fingerprint", Json.String fp) ] );
      ])

let of_json j =
  let* v = Result.bind (Json.field "schema_version" j) Json.get_int in
  let* () =
    if v = schema_version then Ok ()
    else Error (Printf.sprintf "unsupported postmortem schema version %d" v)
  in
  let* kind = Result.bind (Json.field "kind" j) Json.get_string in
  let* () =
    if kind = "rtnet-postmortem" then Ok ()
    else Error (Printf.sprintf "not a postmortem artifact (kind %S)" kind)
  in
  let* trig = Result.bind (Json.field "trigger" j) Json.get_string in
  let* trigger = trigger_of_string trig in
  let* topology = Result.bind (Json.field "topology" j) Json.get_string in
  let* seed = Result.bind (Json.field "seed" j) Json.get_int in
  let* fault_seed = Result.bind (Json.field "fault_seed" j) Json.get_int in
  let* horizon = Result.bind (Json.field "horizon" j) Json.get_int in
  let* fingerprint = Result.bind (Json.field "fingerprint" j) Json.get_string in
  let* verdict = Json.field "verdict" j in
  let* events = Json.field "events" j in
  let* chains = Json.field "chains" j in
  let* flight = Json.field "flight" j in
  let* repro =
    Json.field_or "repro" ~default:None
      (fun r ->
        let* note = Result.bind (Json.field "note" r) Json.get_string in
        let* fp = Result.bind (Json.field "fingerprint" r) Json.get_string in
        Ok (Some (note, fp)))
      j
  in
  Ok
    {
      pm_trigger = trigger;
      pm_topology = topology;
      pm_seed = seed;
      pm_fault_seed = fault_seed;
      pm_horizon = horizon;
      pm_fingerprint = fingerprint;
      pm_verdict = verdict;
      pm_events = events;
      pm_chains = chains;
      pm_flight = flight;
      pm_repro = repro;
    }

let save ~path t = Json.to_file path (to_json t)

let load ~path = Json.load_file path of_json
