(* Shared cmdliner terms for the rtnet command-line tools. *)

open Cmdliner

let scenario_doc =
  "Workload scenario: videoconference, atc, trading, atm, manufacturing, \
   skewed, uniform."

let tool () = Filename.remove_extension (Filename.basename Sys.executable_name)

(* Ends the tool with exit 2 and one line on stderr on an [Error]. *)
let or_exit = function
  | Ok x -> x
  | Error e ->
    Printf.eprintf "%s: %s\n%!" (tool ()) e;
    exit 2

(* One source of truth for scenario naming: the scenario decoder
   campaign cells and topology segments use, so `ddcr_sim -s trading
   -n 4` and a campaign cell build byte-identical instances.  A
   scenario with no single-bus instance (unknown kind, "topo", bad
   size) ends the tool with exit 2. *)
let instance_of ~scenario ~size ~load ~deadline_windows =
  or_exit
    (Rtnet_workload.Scenarios.of_kind ~kind:scenario ~size ~load
       ~deadline_windows)

(* The simulated horizon in bit-times.  A non-positive --horizon-ms
   leaves nothing to simulate: like an unknown scenario, it ends the
   tool with exit 2 and a message. *)
let horizon_of horizon_ms =
  if horizon_ms < 1 then begin
    Printf.eprintf "%s: --horizon-ms must be at least 1 (got %d)\n%!" (tool ())
      horizon_ms;
    exit 2
  end;
  horizon_ms * 1_000_000

(* Output paths are checked before any work starts, so a mistyped
   directory costs nothing.  A file's directory must exist; a
   directory must exist or, with [~create], is made here (its parent
   must exist).  [flag] names the option in the message. *)
let check_out_file ~flag = function
  | None -> Ok ()
  | Some path ->
    let d = Filename.dirname path in
    if not (Sys.file_exists d && Sys.is_directory d) then
      Error (Printf.sprintf "%s %s: no such directory %s" flag path d)
    else if Sys.file_exists path && Sys.is_directory path then
      Error (Printf.sprintf "%s %s: is a directory" flag path)
    else Ok ()

let check_out_dir ~flag ~create = function
  | None -> Ok ()
  | Some d -> (
    match if create && not (Sys.file_exists d) then Unix.mkdir d 0o755 with
    | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "%s %s: %s" flag d (Unix.error_message err))
    | () ->
      if not (Sys.file_exists d) then
        Error (Printf.sprintf "%s %s: no such directory" flag d)
      else if not (Sys.is_directory d) then
        Error (Printf.sprintf "%s %s: not a directory" flag d)
      else Ok ())

(* Ends the tool with exit 2 and one line on stderr at the first
   failed check. *)
let require checks = List.iter or_exit checks

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
