val cmd : int Cmdliner.Cmd.t
(** [ddcr_admit run|gen]: the crash-safe incremental admission
    service and its churn-trace generator. *)
