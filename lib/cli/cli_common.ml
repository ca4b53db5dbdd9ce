(* Shared cmdliner terms and the one error path of the rtnet tools. *)

open Cmdliner
module Spec = Rtnet_campaign.Spec
module Ddcr_params = Rtnet_core.Ddcr_params

let exit_code tool = function
  | Ok code -> code
  | Error msg ->
    Format.eprintf "%s: %s@." tool msg;
    2

let cmd info term = Cmd.v info Term.(const exit_code $ main_name $ term)

let horizon_of horizon_ms =
  if horizon_ms < 1 then
    Error (Printf.sprintf "--horizon-ms must be at least 1 (got %d)" horizon_ms)
  else Ok (horizon_ms * 1_000_000)

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

let load_params path = Rtnet_util.Json.load_file path Ddcr_params.of_json

(* -------------------- terms -------------------- *)

let scenario =
  let make sc_kind sc_size sc_load sc_deadline_windows =
    { Spec.sc_kind; sc_size; sc_load; sc_deadline_windows; sc_fanout = 1 }
  in
  Term.(
    const make
    $ Arg.(
        value
        & opt string "videoconference"
        & info [ "s"; "scenario" ] ~docv:"NAME"
            ~doc:
              "Workload scenario: videoconference, atc, trading, atm, \
               manufacturing, skewed, uniform.")
    $ Arg.(
        value & opt int 6
        & info [ "n"; "size" ] ~docv:"N"
            ~doc:"Number of stations/radars/gateways/ports/sources.")
    $ Arg.(
        value & opt float 0.3
        & info [ "load" ] ~docv:"FRACTION"
            ~doc:"Peak offered load for the uniform scenario.")
    $ Arg.(
        value & opt float 2.0
        & info [ "deadline-windows" ] ~docv:"K"
            ~doc:"Relative deadline in window units (uniform scenario)."))

let allocation =
  let open Ddcr_params in
  Arg.(
    value
    & opt
        (enum
           [
             ("round-robin", Round_robin);
             ("contiguous", Contiguous);
             ("weighted", Weighted);
           ])
        Round_robin
    & info [ "allocation" ] ~docv:"POLICY"
        ~doc:"Static-index allocation: round-robin, contiguous or weighted.")

let params =
  let make indices_per_source burst theta allocation inst =
    Ddcr_params.with_theta
      (Ddcr_params.with_burst
         (Ddcr_params.default ~indices_per_source ~allocation inst)
         burst)
      theta
  in
  Term.(
    const make
    $ Arg.(
        value & opt int 1
        & info [ "indices" ] ~docv:"NU"
            ~doc:"Static indices allocated to each source.")
    $ Arg.(
        value & opt int 0
        & info [ "burst" ] ~docv:"BITS"
            ~doc:
              "Packet-bursting budget in bits (0 disables; 65536 = 802.3z).")
    $ Arg.(
        value & opt int 0
        & info [ "theta" ] ~docv:"BITS"
            ~doc:"Compressed-time increment theta(c) in bit-times (0 = off).")
    $ allocation)

let params_file doc =
  let load = function
    | None -> Ok None
    | Some p -> Result.map Option.some (load_params p)
  in
  Term.(
    const load
    $ Arg.(value & opt (some file) None & info [ "params" ] ~docv:"FILE" ~doc))

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let horizon_ms ?(default = 50) () =
  Arg.(
    value & opt int default
    & info [ "horizon-ms" ] ~docv:"MS"
        ~doc:"Simulated duration in milliseconds (1 ms = 1e6 bit-times).")

let jobs ~default doc =
  Arg.(value & opt int default & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let out_info ?(docv = "FILE") doc = Arg.info [ "o"; "out" ] ~docv ~doc
let out doc = Arg.(value & opt (some string) None & out_info doc)
let out_required doc = Arg.(required & opt (some string) None & out_info doc)
let quiet ?(names = [ "quiet" ]) doc = Arg.(value & flag & info names ~doc)
let resume doc = Arg.(value & flag & info [ "resume" ] ~doc)

let telemetry =
  Arg.(
    value & flag
    & info [ "telemetry" ]
        ~doc:
          "Record telemetry and print the metrics registry plus the \
           per-class bound-headroom table (per segment for a topology).")

let headroom =
  Arg.(
    value & flag
    & info [ "headroom" ]
        ~doc:
          "Print the per-class bound-headroom table (observed worst access \
           delay against the analytic bounds; per segment for a topology) \
           without the registry dump.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's timeline as Chrome trace-event JSON \
           (Perfetto-loadable) to $(docv), one process track per segment \
           for a topology; implies telemetry recording.")

let postmortem_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "postmortem-out" ] ~docv:"FILE"
        ~doc:
          "On a failure verdict of a federated run (chain miss, shed or \
           bridge overflow), dump its black-box flight recorders into a \
           versioned postmortem artifact at $(docv); nothing is written \
           for a clean run.  A replayed artifact's postmortem names the \
           repro's note and fingerprint and is byte-identical on every \
           replay.")
