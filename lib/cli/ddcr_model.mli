val cmd : int Cmdliner.Cmd.t
(** [ddcr_model explore|check|export-repro]: explicit-state model
    checking of the DDCR automaton. *)
