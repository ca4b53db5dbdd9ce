val cmd : int Cmdliner.Cmd.t
(** [ddcr_fc]: the Section 4.3 feasibility conditions of one scenario,
    or a dimensioning search for a feasible configuration. *)
