let () = exit (Cmdliner.Cmd.eval' Rtnet_cli.Ddcr_figures.cmd)
