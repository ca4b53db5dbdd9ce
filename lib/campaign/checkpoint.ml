module Json = Rtnet_util.Json
module Wal = Rtnet_util.Wal

let ( let* ) = Result.bind

let schema_version = 1

let journal_path ~out = out ^ ".ckpt"

let header_json spec =
  Json.Obj
    [
      ("campaign", Json.String spec.Spec.name);
      ("spec_hash", Json.String (Spec.hash spec));
      ("schema_version", Json.Int schema_version);
    ]

let check_header spec j =
  let* name = Result.bind (Json.field "campaign" j) Json.get_string in
  let* h = Result.bind (Json.field "spec_hash" j) Json.get_string in
  let* v = Result.bind (Json.field "schema_version" j) Json.get_int in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported checkpoint schema version %d" v)
  else if name <> spec.Spec.name || h <> Spec.hash spec then
    Error
      (Printf.sprintf
         "checkpoint was written for campaign %s (spec %s), not %s (spec %s) \
          — delete it or pass a different journal path"
         name h spec.Spec.name (Spec.hash spec))
  else Ok ()

type entry = Completed of int * Json.t | Failed_marker of int

let entry_of_json j =
  let* index = Result.bind (Json.field "cell" j) Json.get_int in
  match Json.member "result" j with
  | Some result -> Ok (Completed (index, result))
  | None -> (
    match Json.member "failed" j with
    | Some _ -> Ok (Failed_marker index)
    | None -> Error "entry has neither \"result\" nor \"failed\"")

type loaded = { entries : (int * Json.t) list; valid_bytes : int }

let load ?(on_warning = fun (_ : string) -> ()) ~path ~spec () =
  let* log = Wal.load ~path ~header:(check_header spec) ~record:entry_of_json in
  if log.Wal.torn then
    on_warning
      (if log.Wal.valid_bytes = 0 then
         (* Nothing was checkpointed yet: resume from scratch rather
            than refusing, but say so. *)
         Printf.sprintf
           "%s: header line is torn (kill landed mid-write); treating the \
            journal as empty and restarting the campaign"
           path
       else
         Printf.sprintf
           "%s: final journal line %d is torn; dropping it — the cell it \
            recorded will re-run"
           path
           (List.length log.Wal.records + 2));
  (* Replay the journal in order: a completed line records a cell's
     result, a failed marker (worker died before delivering it) voids
     any earlier record so resume re-runs the cell; a retry's later
     completed line re-records it. *)
  let drop index = List.filter (fun (i, _) -> i <> index) in
  let entries =
    List.fold_left
      (fun acc -> function
        | Completed (index, result) -> (index, result) :: drop index acc
        | Failed_marker index -> drop index acc)
      [] log.Wal.records
  in
  Ok { entries = List.rev entries; valid_bytes = log.Wal.valid_bytes }

type writer = Wal.writer

let open_for_append ~path ~spec ~valid_bytes =
  Wal.resume ~path ~header:(header_json spec) ~valid_bytes

let append_entry w ~index ~key outcome =
  Wal.append w
    (Json.Obj [ ("cell", Json.Int index); ("key", Json.String key); outcome ])

let append w ~index ~key result = append_entry w ~index ~key ("result", result)

let append_failed w ~index ~key ~reason =
  append_entry w ~index ~key ("failed", Json.String reason)

let close = Wal.close

let remove ~path = if Sys.file_exists path then Sys.remove path
