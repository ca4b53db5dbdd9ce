(* Shared cmdliner terms for the rtnet command-line tools. *)

open Cmdliner

let scenario_doc =
  "Workload scenario: videoconference, atc, trading, atm, manufacturing, \
   skewed, uniform."

(* One source of truth for scenario naming: the campaign spec's
   scenario decoder, so `ddcr_sim -s trading -n 4` and a campaign cell
   build byte-identical instances.  A scenario with no single-bus
   instance (unknown kind, "topo", bad size) ends the tool with exit 2. *)
let instance_of ~scenario ~size ~load ~deadline_windows =
  match
    Rtnet_campaign.Spec.instance_result
      {
        Rtnet_campaign.Spec.sc_kind = scenario;
        sc_size = size;
        sc_load = load;
        sc_deadline_windows = deadline_windows;
        sc_fanout = 1;
      }
  with
  | Ok inst -> inst
  | Error e ->
    Printf.eprintf "%s: %s\n%!"
      (Filename.remove_extension (Filename.basename Sys.executable_name))
      e;
    exit 2

let scenario =
  Arg.(
    value
    & opt string "videoconference"
    & info [ "s"; "scenario" ] ~docv:"NAME" ~doc:scenario_doc)

let size =
  Arg.(
    value & opt int 6
    & info [ "n"; "size" ] ~docv:"N"
        ~doc:"Number of stations/radars/gateways/ports/sources.")

let load =
  Arg.(
    value & opt float 0.3
    & info [ "load" ] ~docv:"FRACTION"
        ~doc:"Peak offered load for the uniform scenario.")

let deadline_windows =
  Arg.(
    value & opt float 2.0
    & info [ "deadline-windows" ] ~docv:"K"
        ~doc:"Relative deadline in window units (uniform scenario).")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let horizon_ms =
  Arg.(
    value & opt int 50
    & info [ "horizon-ms" ] ~docv:"MS"
        ~doc:"Simulated duration in milliseconds (1 ms = 1e6 bit-times).")

let indices_per_source =
  Arg.(
    value & opt int 1
    & info [ "indices" ] ~docv:"NU"
        ~doc:"Static indices allocated to each source.")

let burst_bits =
  Arg.(
    value & opt int 0
    & info [ "burst" ] ~docv:"BITS"
        ~doc:"Packet-bursting budget in bits (0 disables; 65536 = 802.3z).")

let theta =
  Arg.(
    value & opt int 0
    & info [ "theta" ] ~docv:"BITS"
        ~doc:"Compressed-time increment theta(c) in bit-times (0 = off).")

let allocation =
  let parse = function
    | "round-robin" -> Ok Rtnet_core.Ddcr_params.Round_robin
    | "contiguous" -> Ok Rtnet_core.Ddcr_params.Contiguous
    | "weighted" -> Ok Rtnet_core.Ddcr_params.Weighted
    | other -> Error (`Msg (Printf.sprintf "unknown allocation %S" other))
  in
  let print fmt = function
    | Rtnet_core.Ddcr_params.Round_robin -> Format.pp_print_string fmt "round-robin"
    | Rtnet_core.Ddcr_params.Contiguous -> Format.pp_print_string fmt "contiguous"
    | Rtnet_core.Ddcr_params.Weighted -> Format.pp_print_string fmt "weighted"
  in
  Arg.(
    value
    & opt (conv (parse, print)) Rtnet_core.Ddcr_params.Round_robin
    & info [ "allocation" ] ~docv:"POLICY"
        ~doc:"Static-index allocation: round-robin, contiguous or weighted.")

let adversary =
  Arg.(
    value & flag
    & info [ "adversary" ]
        ~doc:"Replace every arrival law by the greedy peak-load adversary.")
