(** Whole-file input shared by every reader of a file. *)

val load : string -> (string -> ('a, string) result) -> ('a, string) result
(** [load path parse] is [parse] of the contents of [path].  A file that
    cannot be read (missing, a directory, unreadable) is an [Error],
    never an exception; either error reads ["path: reason"]. *)

val named : string -> ('a, string) result -> ('a, string) result
(** [named path r] prefixes an [Error] of [r] with ["path: "]. *)
