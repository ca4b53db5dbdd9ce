module Json = Rtnet_util.Json
module Topo_driver = Rtnet_topology.Driver

let ( let* ) = Result.bind

type verdict =
  | Pass
  | Safety_violation of string
  | Deadline_miss of { misses : int; first_uid : int }
  | Failed_resync of { source : int }
  | Invariant_violation of { rule : string; message : string }
  | Harness_mismatch of string
  | Run_crash of string
  | Chain_deadline_miss of { misses : int; flow : string }
  | Handoff_loss of { bridge : string; chains : int }
  | Bridge_overflow of { bridge : string; dropped : int }
  | Admission_violation of { flow : string; misses : int }

let label = function
  | Pass -> "pass"
  | Safety_violation _ -> "safety-violation"
  | Deadline_miss _ -> "deadline-miss"
  | Failed_resync _ -> "failed-resync"
  | Invariant_violation _ -> "invariant-violation"
  | Harness_mismatch _ -> "harness-mismatch"
  | Run_crash _ -> "run-crash"
  | Chain_deadline_miss _ -> "chain-deadline-miss"
  | Handoff_loss _ -> "handoff-loss"
  | Bridge_overflow _ -> "bridge-overflow"
  | Admission_violation _ -> "admission-violation"

let describe = function
  | Pass -> "pass: every oracle holds"
  | Safety_violation m -> "safety violation: " ^ m
  | Deadline_miss { misses; first_uid } ->
    Printf.sprintf
      "%d deadline miss(es) outside every fault epoch (first uid=%d)" misses
      first_uid
  | Failed_resync { source } ->
    Printf.sprintf "source %d never resynchronized before the horizon" source
  | Invariant_violation { rule; message } ->
    Printf.sprintf "invariant violation [%s]: %s" rule message
  | Harness_mismatch m -> "harness mismatch: " ^ m
  | Run_crash m -> "run crashed: " ^ m
  | Chain_deadline_miss { misses; flow } ->
    Printf.sprintf
      "%d end-to-end chain deadline miss(es) outside every fault epoch \
       (first flow %s)"
      misses flow
  | Handoff_loss { bridge; chains } ->
    Printf.sprintf
      "%d chain(s) lost in the cross-segment hand-off at bridge %s" chains
      bridge
  | Bridge_overflow { bridge; dropped } ->
    Printf.sprintf
      "bridge %s store-and-forward queue overflowed: %d message(s) dropped"
      bridge dropped
  | Admission_violation { flow; misses } ->
    Printf.sprintf
      "admission control accepted flow %s yet the run misses %d deadline(s)"
      flow misses

let is_failure v = v <> Pass
let same_class a b = String.equal (label a) (label b)

(* -------------------- canonical JSON -------------------- *)

let to_json v =
  let tag = ("verdict", Json.String (label v)) in
  Json.Obj
    (match v with
    | Pass -> [ tag ]
    | Safety_violation m | Harness_mismatch m | Run_crash m ->
      [ tag; ("message", Json.String m) ]
    | Deadline_miss { misses; first_uid } ->
      [ tag; ("misses", Json.Int misses); ("first_uid", Json.Int first_uid) ]
    | Failed_resync { source } -> [ tag; ("source", Json.Int source) ]
    | Invariant_violation { rule; message } ->
      [ tag; ("rule", Json.String rule); ("message", Json.String message) ]
    | Chain_deadline_miss { misses; flow } ->
      [ tag; ("misses", Json.Int misses); ("flow", Json.String flow) ]
    | Handoff_loss { bridge; chains } ->
      [ tag; ("bridge", Json.String bridge); ("chains", Json.Int chains) ]
    | Bridge_overflow { bridge; dropped } ->
      [ tag; ("bridge", Json.String bridge); ("dropped", Json.Int dropped) ]
    | Admission_violation { flow; misses } ->
      [ tag; ("flow", Json.String flow); ("misses", Json.Int misses) ])

let of_json j =
  let int k = Result.bind (Json.field k j) Json.get_int
  and str k = Result.bind (Json.field k j) Json.get_string in
  let both a b f = Result.bind a (fun a -> Result.map (f a) b) in
  let message f = Result.map f (str "message") in
  let* tag = str "verdict" in
  match tag with
  | "pass" -> Ok Pass
  | "safety-violation" -> message (fun m -> Safety_violation m)
  | "harness-mismatch" -> message (fun m -> Harness_mismatch m)
  | "run-crash" -> message (fun m -> Run_crash m)
  | "deadline-miss" ->
    both (int "misses") (int "first_uid") (fun misses first_uid ->
        Deadline_miss { misses; first_uid })
  | "failed-resync" ->
    Result.map (fun source -> Failed_resync { source }) (int "source")
  | "invariant-violation" ->
    both (str "rule") (str "message") (fun rule message ->
        Invariant_violation { rule; message })
  | "chain-deadline-miss" ->
    both (int "misses") (str "flow") (fun misses flow ->
        Chain_deadline_miss { misses; flow })
  | "handoff-loss" ->
    both (str "bridge") (int "chains") (fun bridge chains ->
        Handoff_loss { bridge; chains })
  | "bridge-overflow" ->
    both (str "bridge") (int "dropped") (fun bridge dropped ->
        Bridge_overflow { bridge; dropped })
  | "admission-violation" ->
    both (str "flow") (int "misses") (fun flow misses ->
        Admission_violation { flow; misses })
  | other -> Error (Printf.sprintf "unknown verdict %S" other)

(* -------------------- classification -------------------- *)

let classify (f : Trace_check.findings) =
  match (f.safety, f.first_miss, f.degraded, f.other_error) with
  | Some m, _, _, _ -> Safety_violation m
  | _, Some first_uid, _, _ -> Deadline_miss { misses = f.misses; first_uid }
  | _, _, source :: _, _ -> Failed_resync { source }
  | _, _, _, Some (rule, message) -> Invariant_violation { rule; message }
  | _ -> Pass

(* End-to-end classification of a federated run.  Shed and dropped
   chains are already excluded from [v_misses] by the driver; what is
   left is ranked most severe first: silent-loss-turned-structured
   (queue overflow), degraded-mode shedding (a chain abandoned at a
   hand-off), then chain deadline misses. *)
let classify_topo (r : Topo_driver.result) =
  let v = r.Topo_driver.r_verdict in
  match v.Topo_driver.v_bridge_drops with
  | d :: _ ->
    Bridge_overflow
      {
        bridge = d.Topo_driver.bd_bridge;
        dropped = List.length v.Topo_driver.v_bridge_drops;
      }
  | [] ->
    if v.Topo_driver.v_shed > 0 then
      let bridge =
        List.find_map
          (function
            | Topo_driver.Shed { sh_bridge; _ } -> Some sh_bridge
            | _ -> None)
          r.Topo_driver.r_events
        |> Option.value ~default:"?"
      in
      Handoff_loss { bridge; chains = v.Topo_driver.v_shed }
    else
      match v.Topo_driver.v_misses with
      | m :: _ ->
        Chain_deadline_miss
          {
            misses = List.length v.Topo_driver.v_misses;
            flow = m.Topo_driver.ms_flow;
          }
      | [] -> Pass
