val cmd : int Cmdliner.Cmd.t
(** [ddcr_chaos search|shrink|replay|soak]: adversarial
    counterexample search and deterministic replay artifacts. *)
