(* ddcr_admit: the crash-safe incremental admission-control service.

   `run` drains a churn trace (flow add/remove/modify requests) through
   the incremental Section 4.3 feasibility engine, journaling every
   decision to a line-per-record write-ahead log with periodic engine
   snapshots.  After a kill -9 mid-churn, `--resume` replays the intact
   journal prefix (snapshot-accelerated) and continues: the completed
   decision log is byte-identical to an uninterrupted run.  `gen`
   samples a reproducible churn trace.

   Examples:
     ddcr_admit gen -o churn.json --sources 2 --pool 8 --requests 200
     ddcr_admit run churn.json -o decisions.log --journal churn.wal
     ddcr_admit run churn.json --journal churn.wal --crash-after 100
     ddcr_admit run churn.json --journal churn.wal --resume -o decisions.log
     ddcr_admit run churn.json --selfcheck-every 1 --simulate

   Exit codes: 0 clean; 1 a differential self-check mismatch or a
   simulated admission violation; 2 malformed input (trace, config or
   journal). *)

module Request = Rtnet_admit.Request
module Engine = Rtnet_admit.Engine
module Journal = Rtnet_admit.Journal
module Service = Rtnet_admit.Service
module Generator = Rtnet_chaos.Generator
module Admission = Rtnet_chaos.Admission
module Ddcr_params = Rtnet_core.Ddcr_params
module Run = Rtnet_stats.Run
module Oracle = Rtnet_analysis.Oracle

open Cmdliner

let ( let* ) = Result.bind

let quiet =
  Cli_common.quiet ~names:[ "q"; "quiet" ]
    "Suppress the progress/summary lines."

(* -------------------- run -------------------- *)

let trace_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE"
        ~doc:"Churn trace to drain (a file written by $(b,ddcr_admit gen)).")

let out =
  Cli_common.out
    "Write the decision log to $(docv) (one canonical journal line per \
     decision; on $(b,--resume) the replayed prefix is re-emitted first, so \
     a completed resumed log is byte-identical to an uninterrupted run's).  \
     Default: stdout."

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead journal path.  Without $(b,--resume) the file is \
           truncated and a fresh header written; snapshots live at \
           $(docv).snap.")

let resume =
  Cli_common.resume
    "Recover from $(b,--journal): drop a torn tail, replay the intact \
     decision prefix (from the latest matching snapshot when one exists), \
     then continue the trace from the next request."

let chunk =
  Arg.(
    value & opt int Service.default.Service.sv_chunk
    & info [ "chunk" ] ~docv:"N"
        ~doc:"Requests arriving per chunk (1 = steady drip).")

let capacity =
  Arg.(
    value & opt int Service.default.Service.sv_capacity
    & info [ "capacity" ] ~docv:"N"
        ~doc:"Hard queue bound; chunk positions at or past it are shed.")

let high =
  Arg.(
    value & opt int Service.default.Service.sv_high
    & info [ "high" ] ~docv:"N"
        ~doc:"High watermark: chunk size at which degraded mode engages.")

let low =
  Arg.(
    value & opt int Service.default.Service.sv_low
    & info [ "low" ] ~docv:"N"
        ~doc:"Low watermark: backlog at which degraded mode releases.")

let selfcheck_every =
  Arg.(
    value & opt int Service.default.Service.sv_selfcheck_every
    & info [ "selfcheck-every" ] ~docv:"N"
        ~doc:
          "Run the differential self-check (incremental vs from-scratch \
           feasibility, exact equality) every $(docv)-th decision; 0 \
           disables sampling.")

let snapshot_every =
  Arg.(
    value & opt int Service.default.Service.sv_snapshot_every
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Snapshot the engine state next to the journal every $(docv) \
           decisions; 0 disables (journal-only recovery).")

let simulate =
  Arg.(
    value & flag
    & info [ "simulate" ]
        ~doc:
          "After the churn drains, simulate the admitted set under \
           CSMA/DDCR and fail (exit 1, admission-violation report) if any \
           deadline is missed — the accept-then-violate check.")

let crash_after =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-after" ] ~docv:"N"
        ~doc:
          "Crash-injection hook: SIGKILL this process (no cleanup, no \
           atexit) immediately before journaling decision N+1, leaving \
           exactly N durable records.  Requires $(b,--journal).")

let crash_torn =
  Arg.(
    value & flag
    & info [ "crash-torn" ]
        ~doc:
          "With $(b,--crash-after): first write half of the fatal \
           record's frame — the torn tail a kill -9 mid-write leaves.")

(* Rebuild the engine from journal + snapshot; returns the engine, the
   replayed records (for log re-emission) and the intact byte prefix. *)
let recover ~trace ~hash ~journal_path =
  let fresh () =
    Engine.create ~phy:trace.Request.tr_phy
      ~num_sources:trace.Request.tr_sources ~params:trace.Request.tr_params
  in
  match journal_path with
  | None ->
    let* eng = fresh () in
    Ok (eng, [], 0, false)
  | Some jp ->
    let* loaded = Journal.load ~path:jp ~trace_hash:hash in
    let records = loaded.Journal.lo_records in
    let replay eng from =
      List.fold_left
        (fun acc r ->
          let* () = acc in
          if r.Journal.jr_seq < from then Ok ()
          else Engine.apply eng r.Journal.jr_request r.Journal.jr_decision)
        (Ok ()) records
    in
    let from_scratch () =
      let* eng = fresh () in
      let* () = replay eng 0 in
      Ok eng
    in
    let* eng =
      match Journal.load_snapshot ~path:jp ~trace_hash:hash with
      | Some (seq, state) when seq <= List.length records -> (
        match
          Engine.restore ~phy:trace.Request.tr_phy
            ~num_sources:trace.Request.tr_sources
            ~params:trace.Request.tr_params state
        with
        | Ok eng ->
          let* () = replay eng seq in
          Ok eng
        | Error _ ->
          (* A bad snapshot degrades to journal-only recovery. *)
          from_scratch ())
      | _ -> from_scratch ()
    in
    Ok (eng, records, loaded.Journal.lo_valid_bytes, loaded.Journal.lo_torn)

let rec drop n = function
  | l when n <= 0 -> l
  | [] -> []
  | _ :: tl -> drop (n - 1) tl

let run_main trace_file out journal_path resume chunk capacity high low
    selfcheck_every snapshot_every simulate sim_horizon_ms seed crash_after
    crash_torn quiet =
  let* () = Cli_common.check_out_file ~flag:"-o" out in
  let* () =
    match journal_path with
    | Some _ -> Ok ()
    | None when crash_after <> None -> Error "--crash-after requires --journal"
    | None when resume -> Error "--resume requires --journal"
    | None -> Ok ()
  in
  let* trace = Request.load_trace ~path:trace_file in
  let config =
    {
      Service.sv_chunk = chunk;
      sv_capacity = capacity;
      sv_high = high;
      sv_low = low;
      sv_selfcheck_every = selfcheck_every;
      sv_snapshot_every = snapshot_every;
    }
  in
  let* () = Service.validate config in
  let hash = Request.trace_hash trace in
  let* eng, replayed, valid_bytes, torn =
    recover ~trace ~hash ~journal_path:(if resume then journal_path else None)
  in
  (* A journal without an intact header (missing, torn in its first
     write, or not resumed) starts over. *)
  let* writer =
    match journal_path with
    | None -> Ok None
    | Some path ->
      Result.map Option.some
        (Journal.resume ~path ~trace_hash:hash ~valid_bytes)
  in
  let start = List.length replayed in
  let remaining = drop start trace.Request.tr_requests in
  let log_oc, close_log =
    match out with
    | None -> (stdout, fun () -> flush stdout)
    | Some p ->
      let oc = open_out p in
      (oc, fun () -> close_out oc)
  in
  (* Re-emit the replayed prefix so a resumed log is byte-identical to an
     uninterrupted one. *)
  List.iter
    (fun r -> output_string log_oc (Journal.record_line r ^ "\n"))
    replayed;
  let appended = ref 0 in
  let journal_cb =
    Option.map
      (fun w r ->
        (match crash_after with
        | Some n when !appended >= n ->
          if crash_torn then Journal.append_torn w r;
          Unix.kill (Unix.getpid ()) Sys.sigkill
        | _ -> ());
        Journal.append w r;
        incr appended)
      writer
  in
  let snapshot_cb =
    Option.map
      (fun _ ~seq state ->
        match
          Journal.save_snapshot ~path:(Option.get journal_path)
            ~trace_hash:hash ~seq state
        with
        | Ok () -> ()
        | Error e -> Format.eprintf "ddcr_admit: snapshot: %s@." e)
      writer
  in
  if (not quiet) && resume then
    Format.eprintf "resumed: %d decision(s) replayed from journal%s@." start
      (if torn then " (torn tail dropped)" else "");
  let summary =
    Service.run ?journal:journal_cb ?snapshot:snapshot_cb ~log:log_oc config
      eng ~start remaining
  in
  Option.iter Journal.close writer;
  close_log ();
  if not quiet then begin
    Format.printf
      "admit run: %d decision(s) (%d replayed), %d accepted, %d admitted \
       flow(s), %d self-check(s)@."
      (start + summary.Service.sm_processed)
      start summary.Service.sm_accepted summary.Service.sm_flows
      summary.Service.sm_selfchecks;
    List.iter
      (fun (code, n) -> Format.printf "  rejected %-14s %d@." code n)
      summary.Service.sm_rejected;
    if summary.Service.sm_degraded > 0 then
      Format.printf "  degraded/restored    %d/%d@." summary.Service.sm_degraded
        summary.Service.sm_restored
  end;
  let violation m =
    Format.eprintf "ddcr_admit: %s@." m;
    Ok 1
  in
  match summary.Service.sm_mismatch with
  | Some m -> violation ("differential self-check FAILED " ^ m)
  | None when not simulate -> Ok 0
  | None when Engine.size eng = 0 ->
    if not quiet then Format.printf "simulate: empty admitted set, pass@.";
    Ok 0
  | None -> (
    let* outcome, verdict =
      Admission.simulate_admitted eng ~trace_seed:seed
        ~horizon_ms:sim_horizon_ms
    in
    match verdict with
    | Oracle.Pass ->
      if not quiet then
        Format.printf
          "simulate: %d admitted flow(s), %d delivered, 0 misses — pass@."
          summary.Service.sm_flows (Run.metrics outcome).Run.delivered;
      Ok 0
    | violated -> violation (Oracle.describe violated))

let run_cmd =
  Cli_common.cmd
    (Cmd.info "run"
       ~doc:
         "Drain a churn trace through the incremental admission engine \
          with write-ahead journaling and crash recovery")
    Term.(
      const run_main $ trace_arg $ out $ journal_arg $ resume $ chunk
      $ capacity $ high $ low $ selfcheck_every $ snapshot_every $ simulate
      $ Cli_common.horizon_ms ~default:10 () $ Cli_common.seed $ crash_after
      $ crash_torn $ quiet)

(* -------------------- gen -------------------- *)

let gen_out = Cli_common.out_required "Where to write the trace."

let gen_sources =
  Arg.(
    value & opt int 2
    & info [ "sources" ] ~docv:"N" ~doc:"Station count.")

let gen_pool =
  Arg.(
    value & opt int 8
    & info [ "pool" ] ~docv:"N"
        ~doc:
          "Flow-id pool size; smaller pools against longer streams \
           exercise the duplicate/unknown-flow paths harder.")

let gen_requests =
  Arg.(
    value & opt int 200
    & info [ "requests" ] ~docv:"N" ~doc:"Churn-stream length.")

let gen_phy =
  Arg.(
    value & opt string "gigabit-ethernet"
    & info [ "phy" ] ~docv:"NAME"
        ~doc:
          "Broadcast medium: gigabit-ethernet, classic-ethernet or \
           atm-bus.")

let gen_params =
  Cli_common.params_file
    "Embed the protocol parameters from $(docv) instead of the derived \
     defaults — how the accept-then-violate fixtures (horizon-starved \
     parameters) are built."

(* A workable default configuration for sampled churn: quaternary
   trees with the scheduling horizon c·F = 8192·1024 sized past the
   largest deadline sample_churn can emit (bits <= 16000, window <=
   127·bits, deadline <= 4·window < 8.2M bit-times) and round-robin
   static indices.  Horizon coverage is what the broken fixtures
   give up. *)
let default_params ~sources =
  let rec pow4 n = if n >= 2 * sources then n else pow4 (4 * n) in
  let q = pow4 4 in
  let static_indices =
    Array.init sources (fun i ->
        let rec walk j acc = if j >= q then List.rev acc else walk (j + sources) (j :: acc) in
        Array.of_list (walk i []))
  in
  {
    Ddcr_params.time_m = 4;
    time_leaves = 1024;
    class_width = 8192;
    alpha = 8192;
    theta = 0;
    static_m = 4;
    static_leaves = q;
    static_indices;
    burst_bits = 0;
  }

let gen_main out sources pool requests seed phy params quiet =
  let* () = Cli_common.check_out_file ~flag:"-o" (Some out) in
  let* () =
    if sources < 1 || pool < 1 || requests < 0 then
      Error "gen: --sources and --pool must be >= 1, --requests >= 0"
    else Ok ()
  in
  let* phy = Request.phy_of_name phy in
  let* params = params in
  let params = Option.value params ~default:(default_params ~sources) in
  let* () = Ddcr_params.validate params ~num_sources:sources in
  let trace =
    {
      Request.tr_phy = phy;
      tr_sources = sources;
      tr_params = params;
      tr_requests =
        Generator.sample_churn ~seed ~index:0 ~sources ~pool ~requests;
    }
  in
  Request.save_trace ~path:out trace;
  if not quiet then
    Format.printf "wrote %d request(s) to %s (trace %s)@." requests out
      (Request.trace_hash trace);
  Ok 0

let gen_cmd =
  Cli_common.cmd
    (Cmd.info "gen"
       ~doc:"Sample a reproducible churn trace (seeded, self-contained)")
    Term.(
      const gen_main $ gen_out $ gen_sources $ gen_pool $ gen_requests
      $ Cli_common.seed $ gen_phy $ gen_params $ quiet)

let cmd =
  Cmd.group
    (Cmd.info "ddcr_admit"
       ~doc:
         "Crash-safe incremental admission-control service for CSMA/DDCR \
          churn streams")
    [ run_cmd; gen_cmd ]
