module Json = Rtnet_util.Json
module Wal = Rtnet_util.Wal

let ( let* ) = Result.bind

type record = {
  jr_seq : int;
  jr_request : Request.t;
  jr_decision : Engine.decision;
}

let record_to_json r =
  Json.Obj
    [
      ("seq", Json.Int r.jr_seq);
      ("request", Request.to_json r.jr_request);
      ("decision", Engine.decision_to_json r.jr_decision);
    ]

let record_of_json j =
  let* seq = Result.bind (Json.field "seq" j) Json.get_int in
  let* request = Result.bind (Json.field "request" j) Request.of_json in
  let* decision =
    Result.bind (Json.field "decision" j) Engine.decision_of_json
  in
  Ok { jr_seq = seq; jr_request = request; jr_decision = decision }

let record_line r = Json.to_string (record_to_json r)

(* -------------------- the log -------------------- *)

(* A [Wal] log whose header binds it to the churn trace; every line
   after it is a decision-log line ({!record_line}). *)

let schema_version = 1

let header_json ~trace_hash =
  Json.Obj
    [
      ("admit_journal_version", Json.Int schema_version);
      ("trace_hash", Json.String trace_hash);
    ]

let check_header ~trace_hash j =
  let* v = Result.bind (Json.field "admit_journal_version" j) Json.get_int in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported journal version %d" v)
  else
    let* h = Result.bind (Json.field "trace_hash" j) Json.get_string in
    if not (String.equal h trace_hash) then
      Error "journal was recorded under a different trace"
    else Ok ()

type loaded = {
  lo_records : record list;
  lo_torn : bool;
  lo_valid_bytes : int;
}

let load ~path ~trace_hash =
  (* Records carry seq 0, 1, 2, ... in order: a gap is corruption. *)
  let next = ref 0 in
  let record j =
    let* r = record_of_json j in
    if r.jr_seq <> !next then
      Error (Printf.sprintf "record %d carries seq %d" !next r.jr_seq)
    else begin
      incr next;
      Ok r
    end
  in
  let* log = Wal.load ~path ~header:(check_header ~trace_hash) ~record in
  Ok
    {
      lo_records = log.Wal.records;
      lo_torn = log.Wal.torn;
      lo_valid_bytes = log.Wal.valid_bytes;
    }

type writer = Wal.writer

let create ~path ~trace_hash =
  Wal.create ~path ~header:(header_json ~trace_hash)

let open_append = Wal.open_append

let resume ~path ~trace_hash ~valid_bytes =
  Wal.resume ~path ~header:(header_json ~trace_hash) ~valid_bytes

let append w r = Wal.append w (record_to_json r)
let append_torn w r = Wal.append_torn w (record_to_json r)
let close = Wal.close

(* -------------------- snapshots -------------------- *)

let snapshot_path path = path ^ ".snap"

let snapshot_to_json ~trace_hash ~seq state =
  Json.Obj
    [
      ("admit_snapshot_version", Json.Int schema_version);
      ("trace_hash", Json.String trace_hash);
      ("seq", Json.Int seq);
      ("engine", state);
    ]

(* Atomic via tmp + rename, so a crash mid-snapshot leaves the previous
   snapshot (or none) — never a torn one. *)
let save_snapshot ~path ~trace_hash ~seq state =
  let sp = snapshot_path path in
  let tmp = sp ^ ".tmp" in
  try
    Json.to_file tmp (snapshot_to_json ~trace_hash ~seq state);
    Sys.rename tmp sp;
    Ok ()
  with Sys_error e -> Error e

(* A missing, unparseable or mismatched snapshot is not fatal — the
   journal alone reconstructs the state, just more slowly. *)
let load_snapshot ~path ~trace_hash =
  Result.to_option
    (Json.load_file (snapshot_path path) (fun j ->
         let* v =
           Result.bind (Json.field "admit_snapshot_version" j) Json.get_int
         in
         let* h = Result.bind (Json.field "trace_hash" j) Json.get_string in
         let* seq = Result.bind (Json.field "seq" j) Json.get_int in
         let* state = Json.field "engine" j in
         if v <> schema_version || not (String.equal h trace_hash) then
           Error "stale"
         else Ok (seq, state)))
