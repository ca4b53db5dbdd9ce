(** Crash-safe decision journal: a length-prefixed write-ahead log of
    (request, decision) pairs plus periodic engine snapshots.

    Wire format: each record is a 4-byte big-endian payload length
    followed by canonical JSON bytes.  The first record is a header
    carrying the schema version and the {!Request.trace_hash} of the
    churn trace, so a journal can never be replayed against a
    different trace.  Records are flushed one by one; a [kill -9]
    therefore leaves at most one torn record at the tail, which
    {!load} drops (torn-tail tolerance — the Campaign.Checkpoint
    contract transposed to length prefixes).  Interior corruption — a
    fully-present record that does not parse, or a sequence gap — is
    an error, never silently skipped.

    Snapshots live next to the journal at [path ^ ".snap"], written
    atomically (tmp + rename); a stale or torn snapshot is ignored and
    the journal alone rebuilds the state. *)

type record = {
  jr_seq : int;  (** 0-based request index; checked dense on load *)
  jr_request : Request.t;
  jr_decision : Engine.decision;
}

val record_to_json : record -> Rtnet_util.Json.t
val record_of_json : Rtnet_util.Json.t -> (record, string) result

val record_line : record -> string
(** Canonical single-line rendering — also the decision-log line
    format, so the journal and the human-readable log are
    byte-relatable. *)

type loaded = {
  lo_records : record list;
  lo_torn : bool;  (** a torn tail (or torn header) was dropped *)
  lo_valid_bytes : int;  (** prefix length holding intact records *)
}

val load : path:string -> trace_hash:string -> (loaded, string) result
(** [load ~path ~trace_hash] reads the intact record prefix.  A
    missing file is an empty journal; a torn tail sets [lo_torn]; a
    header recorded under a different trace, an unparseable interior
    record or a non-dense sequence is an [Error]. *)

type writer

val create : path:string -> trace_hash:string -> (writer, string) result
(** [create] truncates [path] and writes the header. *)

val open_append : path:string -> valid_bytes:int -> (writer, string) result
(** [open_append ~path ~valid_bytes] truncates any torn tail past
    [valid_bytes] (as reported by {!load}) and appends from there. *)

val append : writer -> record -> unit
(** [append w r] writes [r]'s frame — the 4-byte length, then the
    canonical JSON — and flushes the channel: exactly one [flush] per
    record, so a record that {!append} returned from survives a
    [kill -9] of the process.  The header {!create} writes and
    {!append_torn} go through the same framing function. *)

val append_torn : writer -> record -> unit
(** Test hook: writes only the first half of the framed record —
    exactly the tail a [kill -9] mid-write leaves behind. *)

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
