let () = exit (Cmdliner.Cmd.eval' Rtnet_cli.Ddcr_topo.cmd)
