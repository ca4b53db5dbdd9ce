val cmd : int Cmdliner.Cmd.t
(** [ddcr_figures]: regenerate the paper's figures as CSV files. *)
