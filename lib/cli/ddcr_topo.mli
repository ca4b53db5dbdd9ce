val cmd : int Cmdliner.Cmd.t
(** [ddcr_topo check|run|dimension]: admission and simulation of
    federated multi-hop topologies. *)
