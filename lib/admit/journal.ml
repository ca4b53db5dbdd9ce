module Json = Rtnet_util.Json

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

(* -------------------- wire format -------------------- *)

(* Length-prefixed records: a 4-byte big-endian payload length followed
   by the canonical JSON bytes.  The first record is the header
   ({"admit_journal_version", "trace_hash"}); decision records follow.
   A record whose bytes end early — torn length field or torn payload,
   the shapes a kill -9 mid-write or a prefix truncation produce — is
   dropped; a fully-present record that fails to parse is corruption
   and an error (same contract as Campaign.Checkpoint's torn-tail
   tolerance, transposed from line-JSON to length prefixes). *)

let schema_version = 1

let header_json ~trace_hash =
  Json.Obj
    [
      ("admit_journal_version", Json.Int schema_version);
      ("trace_hash", Json.String trace_hash);
    ]

type loaded = {
  lo_records : record list;
  lo_torn : bool;  (** a torn tail (or torn header) was dropped *)
  lo_valid_bytes : int;  (** prefix length holding intact records *)
}

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error e

let load ~path ~trace_hash =
  if not (Sys.file_exists path) then
    Ok { lo_records = []; lo_torn = false; lo_valid_bytes = 0 }
  else
    let* bytes = read_file path in
    let total = String.length bytes in
    (* [next pos] is [Some (payload, pos')] for an intact frame, [None]
       for a torn one (not enough bytes for the length or the payload). *)
    let next pos =
      if pos + 4 > total then None
      else
        let n = Int32.to_int (String.get_int32_be bytes pos) in
        if n < 0 || pos + 4 + n > total then None
        else Some (String.sub bytes (pos + 4) n, pos + 4 + n)
    in
    match next 0 with
    | None ->
      (* Torn header: the journal never recorded anything usable. *)
      Ok { lo_records = []; lo_torn = total > 0; lo_valid_bytes = 0 }
    | Some (header, pos0) ->
      let* () =
        let* j =
          Result.map_error (fun e -> "journal header: " ^ e) (Json.parse header)
        in
        let* v =
          Result.bind (Json.field "admit_journal_version" j) Json.get_int
        in
        if v <> schema_version then
          Error (Printf.sprintf "unsupported journal version %d" v)
        else
          let* h = Result.bind (Json.field "trace_hash" j) Json.get_string in
          if not (String.equal h trace_hash) then
            Error "journal was recorded under a different trace"
          else Ok ()
      in
      let rec go pos seq acc =
        if pos = total then Ok (List.rev acc, false, pos)
        else
          match next pos with
          | None -> Ok (List.rev acc, true, pos)
          | Some (payload, pos') ->
            let* j =
              Result.map_error
                (fun e -> Printf.sprintf "journal record %d: %s" seq e)
                (Json.parse payload)
            in
            let* r =
              Result.map_error
                (fun e -> Printf.sprintf "journal record %d: %s" seq e)
                (record_of_json j)
            in
            if r.jr_seq <> seq then
              Error
                (Printf.sprintf "journal record %d carries seq %d" seq r.jr_seq)
            else go pos' (seq + 1) (r :: acc)
      in
      let* records, torn, valid = go pos0 0 [] in
      Ok { lo_records = records; lo_torn = torn; lo_valid_bytes = valid }

(* -------------------- appending -------------------- *)

(* The payload is rendered into [w_buf] and its length into [w_len],
   both reused from record to record, then written straight to the
   channel: no framed copy of the payload is made. *)
type writer = { w_oc : out_channel; w_buf : Buffer.t; w_len : Bytes.t }

let writer oc = { w_oc = oc; w_buf = Buffer.create 512; w_len = Bytes.create 4 }

(* Write [j] as one frame and flush: the record is on its way to disk
   when this returns, which is the durability contract (one flush per
   record).  [~torn:true] writes only the first half of the frame —
   exactly what a kill -9 mid-write leaves behind. *)
let write_frame ?(torn = false) w j =
  let buf = w.w_buf in
  Buffer.clear buf;
  Json.to_buffer buf j;
  let n = Buffer.length buf in
  Bytes.set_int32_be w.w_len 0 (Int32.of_int n);
  if not torn then begin
    output w.w_oc w.w_len 0 4;
    Buffer.output_buffer w.w_oc buf
  end
  else begin
    let keep = (4 + n) / 2 in
    output w.w_oc w.w_len 0 (min 4 keep);
    if keep > 4 then output_string w.w_oc (Buffer.sub buf 0 (keep - 4))
  end;
  flush w.w_oc

let create ~path ~trace_hash =
  try
    let w = writer (open_out_bin path) in
    write_frame w (header_json ~trace_hash);
    Ok w
  with Sys_error e -> Error e

(* Re-open after a crash: the torn tail (if any) is cut off so fresh
   records extend the intact prefix. *)
let open_append ~path ~valid_bytes =
  try
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd valid_bytes;
    let (_ : int) = Unix.lseek fd 0 Unix.SEEK_END in
    Ok (writer (Unix.out_channel_of_descr fd))
  with
  | Sys_error e -> Error e
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let append w r = write_frame w (record_to_json r)
let append_torn w r = write_frame ~torn:true w (record_to_json r)

let close w = close_out_noerr w.w_oc

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
  let sp = snapshot_path path in
  if not (Sys.file_exists sp) then None
  else
    match Json.parse_file sp with
    | Error _ -> None
    | Ok j -> (
      let ok =
        let* v =
          Result.bind (Json.field "admit_snapshot_version" j) Json.get_int
        in
        let* h = Result.bind (Json.field "trace_hash" j) Json.get_string in
        let* seq = Result.bind (Json.field "seq" j) Json.get_int in
        let* state = Json.field "engine" j in
        if v <> schema_version || not (String.equal h trace_hash) then
          Error "stale"
        else Ok (seq, state)
      in
      match ok with Ok r -> Some r | Error _ -> None)
