(** Crash-safe decision journal: a {!Rtnet_util.Wal} log of
    (request, decision) records plus periodic engine snapshots.

    The header binds the journal to the {!Request.trace_hash} of its
    churn trace; every later line is the decision-log line
    {!record_line} of one record, and the records' [seq] must be dense.

    Snapshots live next to the journal at [path ^ ".snap"], written
    atomically (tmp + rename); a stale or torn snapshot is ignored and
    the journal alone rebuilds the state. *)

type record = {
  jr_seq : int;  (** 0-based request index; checked dense on load *)
  jr_request : Request.t;
  jr_decision : Engine.decision;
}

val record_line : record -> string
(** Canonical single-line rendering: the decision-log line, and the
    journal's line for the record. *)

type loaded = {
  lo_records : record list;
  lo_torn : bool;  (** a torn tail (or torn header) was dropped *)
  lo_valid_bytes : int;  (** prefix length holding intact records *)
}

val load : path:string -> trace_hash:string -> (loaded, string) result
(** [load ~path ~trace_hash] reads the intact record prefix
    ({!Rtnet_util.Wal.load}); a header recorded under a different
    trace or a non-dense sequence is an [Error] too. *)

type writer

val create : path:string -> trace_hash:string -> (writer, string) result
(** [create] truncates [path] and writes the header. *)

val open_append : path:string -> valid_bytes:int -> (writer, string) result
(** [open_append ~path ~valid_bytes] cuts the torn tail past
    [valid_bytes] (as reported by {!load}) and appends from there;
    [valid_bytes] 0 (no intact header) is an [Error]. *)

val resume :
  path:string -> trace_hash:string -> valid_bytes:int -> (writer, string) result
(** [resume ~path ~trace_hash ~valid_bytes] is
    {!Rtnet_util.Wal.resume} with the journal's header. *)

val append : writer -> record -> unit
(** [append w r] writes [r]'s line and flushes
    ({!Rtnet_util.Wal.append}). *)

val append_torn : writer -> record -> unit
(** Test hook: writes only the first half of [r]'s line. *)

val close : writer -> unit

val snapshot_path : string -> string
(** [snapshot_path p] is [p ^ ".snap"]. *)

val save_snapshot :
  path:string ->
  trace_hash:string ->
  seq:int ->
  Rtnet_util.Json.t ->
  (unit, string) result
(** [save_snapshot ~path ~trace_hash ~seq state] atomically replaces
    the snapshot for journal [path] with the {!Engine.snapshot} state
    as of decision [seq] (exclusive: [seq] records are reflected). *)

val load_snapshot :
  path:string -> trace_hash:string -> (int * Rtnet_util.Json.t) option
(** [load_snapshot ~path ~trace_hash] is [Some (seq, state)] when a
    matching intact snapshot exists, [None] otherwise (missing, torn,
    stale and mismatched snapshots all degrade to journal-only
    recovery). *)
