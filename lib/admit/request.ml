module Json = Rtnet_util.Json
module Phy = Rtnet_channel.Phy
module Ddcr_params = Rtnet_core.Ddcr_params

let ( let* ) = Result.bind

type flow = {
  fl_id : string;
  fl_source : int;
  fl_bits : int;
  fl_deadline : int;
  fl_burst : int;
  fl_window : int;
  fl_offset : int;
}

type t = Add of flow | Remove of string | Modify of flow

let flow_id = function Add f | Modify f -> f.fl_id | Remove id -> id
let op = function Add _ -> "add" | Remove _ -> "remove" | Modify _ -> "modify"

(* -------------------- canonical JSON -------------------- *)

let flow_to_json f =
  Json.Obj
    [
      ("id", Json.String f.fl_id);
      ("source", Json.Int f.fl_source);
      ("bits", Json.Int f.fl_bits);
      ("deadline", Json.Int f.fl_deadline);
      ("burst", Json.Int f.fl_burst);
      ("window", Json.Int f.fl_window);
      ("offset", Json.Int f.fl_offset);
    ]

let flow_of_json j =
  let* id = Result.bind (Json.field "id" j) Json.get_string in
  let int_field key = Result.bind (Json.field key j) Json.get_int in
  let* source = int_field "source" in
  let* bits = int_field "bits" in
  let* deadline = int_field "deadline" in
  let* burst = int_field "burst" in
  let* window = int_field "window" in
  let* offset = int_field "offset" in
  Ok
    {
      fl_id = id;
      fl_source = source;
      fl_bits = bits;
      fl_deadline = deadline;
      fl_burst = burst;
      fl_window = window;
      fl_offset = offset;
    }

let to_json = function
  | Add f -> Json.Obj [ ("op", Json.String "add"); ("flow", flow_to_json f) ]
  | Modify f ->
    Json.Obj [ ("op", Json.String "modify"); ("flow", flow_to_json f) ]
  | Remove id ->
    Json.Obj [ ("op", Json.String "remove"); ("id", Json.String id) ]

let of_json j =
  let* op = Result.bind (Json.field "op" j) Json.get_string in
  match op with
  | "add" ->
    let* f = Result.bind (Json.field "flow" j) flow_of_json in
    Ok (Add f)
  | "modify" ->
    let* f = Result.bind (Json.field "flow" j) flow_of_json in
    Ok (Modify f)
  | "remove" ->
    let* id = Result.bind (Json.field "id" j) Json.get_string in
    Ok (Remove id)
  | other -> Error (Printf.sprintf "unknown request op %S" other)

(* -------------------- trace files -------------------- *)

(* Media are referenced by name: the three shipped PHYs are the whole
   vocabulary, and a name keeps trace fixtures self-contained without
   a Phy codec. *)
let phys = [ Phy.gigabit_ethernet; Phy.classic_ethernet; Phy.atm_bus ]

let phy_of_name name =
  match List.find_opt (fun (p : Phy.t) -> String.equal p.Phy.name name) phys with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "unknown phy %S" name)

type trace = {
  tr_phy : Phy.t;
  tr_sources : int;
  tr_params : Ddcr_params.t;
  tr_requests : t list;
}

let schema_version = 1

(* The trace envelope around its request list — the one definition of
   a trace file's keys and their order.  "requests" is its last key. *)
let envelope tr requests =
  Json.Obj
    [
      ("admit_trace_version", Json.Int schema_version);
      ("phy", Json.String tr.tr_phy.Phy.name);
      ("sources", Json.Int tr.tr_sources);
      ("params", Ddcr_params.to_json tr.tr_params);
      ("requests", requests);
    ]

let trace_to_json tr =
  envelope tr (Json.List (List.map to_json tr.tr_requests))

let trace_of_json j =
  let* v = Result.bind (Json.field "admit_trace_version" j) Json.get_int in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported admit trace version %d" v)
  else
    let* phy_name = Result.bind (Json.field "phy" j) Json.get_string in
    let* phy = phy_of_name phy_name in
    let* sources = Result.bind (Json.field "sources" j) Json.get_int in
    let* params =
      Result.map_error
        (fun e -> "params: " ^ e)
        (Result.bind (Json.field "params" j) Ddcr_params.of_json)
    in
    let* reqs = Result.bind (Json.field "requests" j) Json.get_list in
    let* requests =
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | r :: tl -> (
          match of_json r with
          | Ok req -> go (i + 1) (req :: acc) tl
          | Error e -> Error (Printf.sprintf "request %d: %s" i e))
      in
      go 0 [] reqs
    in
    if sources < 1 then Error "sources < 1"
    else if
      Result.is_error (Ddcr_params.validate params ~num_sources:sources)
    then
      Error
        (match Ddcr_params.validate params ~num_sources:sources with
        | Error e -> "params: " ^ e
        | Ok () -> assert false)
    else
      Ok { tr_phy = phy; tr_sources = sources; tr_params = params;
           tr_requests = requests }

let save_trace ~path tr = Json.to_file path (trace_to_json tr)

let load_trace ~path = Json.load_file path trace_of_json

(* The hash pins journal and snapshot files to the exact trace they
   were recorded under; resuming against a different trace is refused
   rather than silently replayed into nonsense.  It digests the bytes
   of [Json.to_string (trace_to_json tr)] without building that tree:
   the envelope is rendered around an empty request list, which, its
   value being the last, ends the rendering as "[]}"; the requests are
   streamed into the list's place one at a time. *)
let trace_hash tr =
  let head = Json.to_string (envelope tr (Json.List [])) in
  let buf = Buffer.create (String.length head + (128 * List.length tr.tr_requests)) in
  Buffer.add_substring buf head 0 (String.length head - 3);
  Json.list_to_buffer buf to_json tr.tr_requests;
  Buffer.add_char buf '}';
  Digest.to_hex (Digest.string (Buffer.contents buf))
