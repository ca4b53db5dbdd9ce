let () = exit (Cmdliner.Cmd.eval' Rtnet_cli.Ddcr_campaign.cmd)
