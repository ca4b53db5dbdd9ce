(** Crash-safe, append-only log of JSON records: the campaign
    checkpoint and the admission journal.

    Wire format: one record per line, the compact JSON of
    {!Json.to_string} (which never writes a raw newline) followed by
    ['\n'].  The first line is a header that binds the log to its input
    (a schema version and the hash of the spec or trace the records
    index into), so a log is never replayed against anything else.

    {!append} writes a whole line and flushes, so a record's newline is
    the last of its bytes to reach the file: a [kill -9] leaves at most
    one line without its newline at the tail.  {!load} drops that torn
    tail and reports where the intact prefix ends, and {!resume} cuts
    the file there before appending.  A complete line that does
    not parse, or that the header check or the record decoder rejects,
    is corruption: an [Error], never skipped. *)

type 'a loaded = {
  records : 'a list;  (** the decoded records after the header, in order *)
  torn : bool;  (** bytes after the last newline were dropped *)
  valid_bytes : int;
      (** length of the intact prefix; 0 when not even the header is *)
}

val load :
  path:string ->
  header:(Json.t -> (unit, string) result) ->
  record:(Json.t -> ('a, string) result) ->
  ('a loaded, string) result
(** [load ~path ~header ~record] reads the intact prefix of the log at
    [path]: [header] checks the first line, [record] decodes each later
    one, in order.  A missing file is an empty log, and so is a torn
    header (with [torn] set).  An unreadable file, a rejected header
    and a corrupt line are [Error]s naming [path] and the line. *)

type writer

val create : path:string -> header:Json.t -> (writer, string) result
(** [create ~path ~header] truncates [path] and writes [header]. *)

val open_append : path:string -> valid_bytes:int -> (writer, string) result
(** [open_append ~path ~valid_bytes] cuts [path] to the intact prefix
    {!load} reported and appends after it.  [valid_bytes] 0 is an
    [Error]: a log without an intact header starts over with
    {!create}. *)

val resume :
  path:string -> header:Json.t -> valid_bytes:int -> (writer, string) result
(** [resume ~path ~header ~valid_bytes] is how both logs resume:
    {!open_append} after the intact prefix {!load} reported, or
    {!create} when there is none ([valid_bytes] 0). *)

val append : writer -> Json.t -> unit
(** [append w j] writes [j]'s line and flushes: one render into a
    buffer the writer reuses, one write and one flush per record, so a
    record [append] returned from survives a [kill -9]. *)

val append_torn : writer -> Json.t -> unit
(** Test hook: writes only the first half of [j]'s line, exactly the
    tail a [kill -9] mid-write leaves. *)

val close : writer -> unit
