(** Append-only checkpoint journal for interrupted campaigns: a
    {!Rtnet_util.Wal} log the coordinator appends one line to per
    finished cell, so a campaign killed at any point resumes without
    recomputing finished cells.

    - header: [{"campaign": name, "spec_hash": h, "schema_version": 1}],
      so a journal never resumes under a different spec, where cell
      indices would mean different configurations;
    - completed cell: [{"cell": index, "key": k, "result": {...}}];
    - failed cell (worker died before delivering it):
      [{"cell": index, "key": k, "failed": reason}].

    {!load} replays the journal in order: a failed marker voids any
    earlier result for that cell (so a resumed run re-executes it),
    and a later result line — the in-run retry succeeding — records it
    again. *)

val journal_path : out:string -> string
(** [journal_path ~out] is the default journal location for a report
    written to [out]: [out ^ ".ckpt"]. *)

type loaded = { entries : (int * Rtnet_util.Json.t) list; valid_bytes : int }
(** The completed [(cell index, result)] pairs, oldest first, and the
    length of the intact prefix {!open_for_append} keeps. *)

val load :
  ?on_warning:(string -> unit) ->
  path:string ->
  spec:Spec.t ->
  unit ->
  (loaded, string) result
(** [load ~path ~spec] returns the completed cells recorded so far
    after replaying failed markers ([\[\]] and [valid_bytes] 0 if the
    file does not exist), or [Error] on an unreadable file, a
    header/spec-hash mismatch or a corrupt line.

    A torn final entry is dropped (that cell re-runs) and a torn
    header — nothing was checkpointed yet — yields an empty journal.
    Both are reported through [on_warning] (default: silent). *)

type writer

val open_for_append :
  path:string -> spec:Spec.t -> valid_bytes:int -> (writer, string) result
(** [open_for_append ~path ~spec ~valid_bytes] opens the journal for
    appending after the intact prefix {!load} reported, or starts it
    over with the header when there is none ({!Rtnet_util.Wal.resume}). *)

val append : writer -> index:int -> key:string -> Rtnet_util.Json.t -> unit
(** [append w ~index ~key result] writes one completed-cell line and
    flushes, so the line survives a subsequent kill. *)

val append_failed : writer -> index:int -> key:string -> reason:string -> unit
(** [append_failed w ~index ~key ~reason] writes a failed-cell marker
    (and flushes): the cell's previous results, if any, are void and a
    resumed run must re-execute it unless a later {!append} for the
    same cell — the retry succeeding — supersedes the marker. *)

val close : writer -> unit

val remove : path:string -> unit
(** [remove ~path] deletes the journal (after the final report has
    been written); missing files are ignored.
    @raise Sys_error if [path] cannot be removed (a directory, say). *)
