val cmd : int Cmdliner.Cmd.t
(** [ddcr_lint]: lint configurations against the feasibility
    conditions, check traces, Perfetto files, replay artifacts and
    admission traces; exit 1 on an Error diagnostic. *)
