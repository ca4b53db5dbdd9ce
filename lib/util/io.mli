(** Whole-file input shared by every reader of a file. *)

val read_file : string -> (string, string) result
(** [read_file path] is the contents of [path]; a file that cannot be
    opened or read (missing, a directory, unreadable) is an [Error]
    with the system's message, never an exception. *)
