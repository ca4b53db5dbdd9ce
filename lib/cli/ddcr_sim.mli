val cmd : int Cmdliner.Cmd.t
(** [ddcr_sim]: simulate one scenario under one MAC protocol or all. *)
