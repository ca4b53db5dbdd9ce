val cmd : int Cmdliner.Cmd.t
(** [ddcr_campaign run|compare|list]: parallel experiment campaigns
    and their metric-regression gate. *)
