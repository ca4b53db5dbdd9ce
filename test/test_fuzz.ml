(* Every input decoder is total: a committed input fixture, or a log
   or snapshot written from one, with bytes flipped, cut short or
   duplicated, or with a number replaced by an edge value, decodes to
   [Ok _] or [Error _] and never raises.  The mutants are drawn from a
   fixed seed, so a failure names the same fixture, mutant and decoder
   on every run. *)

module Json = Rtnet_util.Json
module Fault_plan = Rtnet_channel.Fault_plan
module Topo = Rtnet_topology.Topo
module Spec = Rtnet_campaign.Spec
module Report = Rtnet_campaign.Report
module Plain = Rtnet_chaos.Plain
module Federated = Rtnet_chaos.Federated
module Admission = Rtnet_chaos.Admission
module Repro = Rtnet_chaos.Repro
module Request = Rtnet_admit.Request
module Ddcr_params = Rtnet_core.Ddcr_params
module Postmortem = Rtnet_obs.Postmortem
module Trace_event = Rtnet_telemetry.Trace_event
module Trace_io = Rtnet_analysis.Trace_io
module Engine = Rtnet_admit.Engine
module Journal = Rtnet_admit.Journal
module Checkpoint = Rtnet_campaign.Checkpoint
module Grid = Rtnet_campaign.Grid
module Cli = Rtnet_cli

let read path = In_channel.with_open_bin path In_channel.input_all

let fixtures suffix =
  Sys.readdir "fixtures" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort compare

(* The number tokens outside string literals, as [(start, stop)]. *)
let numbers s =
  let n = String.length s in
  let is_num c = (c >= '0' && c <= '9') || String.contains "-+.eE" c in
  let rec go i in_str acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | '\\' when in_str -> go (i + 2) true acc
      | '"' -> go (i + 1) (not in_str) acc
      | ('0' .. '9' | '-') when not in_str ->
        let j = ref i in
        while !j < n && is_num s.[!j] do incr j done;
        go !j false ((i, !j) :: acc)
      | _ -> go (i + 1) in_str acc
  in
  go 0 false []

let edge_values =
  [
    "0"; "-1"; "1e308"; "1e999"; "4611686018427387904";
    "-4611686018427387904";
  ]

(* [(label, text)]: the original, [flips] single-byte replacements
   (half arbitrary bytes, half JSON punctuation and digits), [cuts]
   truncations, [dups] duplicated slices, and the first [nums] number
   tokens replaced by each edge value. *)
let mutants ~rng ~flips ~cuts ~dups ~nums text =
  let n = String.length text in
  let pick k = if k <= 0 then 0 else Random.State.int rng k in
  let splice a b mid =
    String.sub text 0 a ^ mid ^ String.sub text b (n - b)
  in
  let punct = "{}[]\":,0123456789-.eEtfn " in
  let flip k =
    let p = pick n in
    let c =
      if k mod 2 = 0 then Char.chr (pick 256)
      else punct.[pick (String.length punct)]
    in
    ( Printf.sprintf "flip@%d=%C" p c,
      splice p (min n (p + 1)) (String.make 1 c) )
  in
  let cut _ =
    let p = pick n in
    (Printf.sprintf "cut@%d" p, String.sub text 0 p)
  in
  let dup _ =
    let a = pick n in
    let len = min (n - a) (1 + pick 200) in
    ( Printf.sprintf "dup@%d+%d" a len,
      splice (a + len) (a + len) (String.sub text a len) )
  in
  let number =
    List.filteri (fun i _ -> i < nums) (numbers text)
    |> List.concat_map (fun (a, b) ->
           List.map
             (fun v -> (Printf.sprintf "num@%d=%s" a v, splice a b v))
             edge_values)
  in
  (("original", text) :: List.init flips flip)
  @ List.init cuts cut @ List.init dups dup @ number

let never_raises ~what decode text =
  match decode text with
  | Ok _ | Error _ -> ()
  | exception e ->
    Alcotest.failf "%s raised %s" what (Printexc.to_string e)

let ignore_ok decode j = Result.map ignore (decode j)

(* The decoders a committed JSON fixture can reach. *)
let json_decoders =
  [
    ("Topo.of_json", ignore_ok Topo.of_json);
    ("Fault_plan.spec_of_json", ignore_ok Fault_plan.spec_of_json);
    ("Plain.config_of_json", ignore_ok Plain.config_of_json);
    ("Repro.of_json Plain", ignore_ok (Repro.of_json (module Plain)));
    ("Repro.of_json Federated",
     ignore_ok (Repro.of_json (module Federated)));
    ("Repro.of_json Admission",
     ignore_ok (Repro.of_json (module Admission)));
    ("Report.of_json", ignore_ok Report.of_json);
    ("Request.trace_of_json", ignore_ok Request.trace_of_json);
    ("Ddcr_params.of_json", ignore_ok Ddcr_params.of_json);
    ("Postmortem.of_json", ignore_ok Postmortem.of_json);
    ("Trace_event.validate", ignore_ok Trace_event.validate);
  ]

(* Parse, then hand the tree to every decoder in [decoders]. *)
let check_json ~name decoders (label, text) =
  let what d = Printf.sprintf "%s [%s] %s" name label d in
  match Json.parse text with
  | Error _ -> ()
  | exception e ->
    Alcotest.failf "%s raised %s" (what "Json.parse") (Printexc.to_string e)
  | Ok j ->
    List.iter
      (fun (d, decode) -> never_raises ~what:(what d) decode j)
      decoders

let test_json_fixtures () =
  let rng = Random.State.make [| 28 |] in
  List.iter
    (fun f ->
      mutants ~rng ~flips:24 ~cuts:12 ~dups:6 ~nums:8
        (read (Filename.concat "fixtures" f))
      |> List.iter (check_json ~name:f json_decoders))
    (fixtures ".json")

let test_topology_fault_plans () =
  let rng = Random.State.make [| 29 |] in
  List.iter
    (fun f ->
      if String.starts_with ~prefix:"topo_fault_" f then
        match Json.parse (read (Filename.concat "fixtures" f)) with
        | Ok (Json.Obj plans) ->
          List.iter
            (fun (seg, plan) ->
              mutants ~rng ~flips:8 ~cuts:4 ~dups:2 ~nums:4
                (Json.to_string plan)
              |> List.iter
                   (check_json ~name:(f ^ ": " ^ seg)
                      [
                        ( "Fault_plan.spec_of_json",
                          ignore_ok Fault_plan.spec_of_json );
                      ]))
            plans
        | Ok _ | Error _ -> Alcotest.failf "%s: not an object of plans" f)
    (fixtures ".json")

let test_builtin_specs () =
  let rng = Random.State.make [| 30 |] in
  List.iter
    (fun (name, spec) ->
      mutants ~rng ~flips:8 ~cuts:4 ~dups:2 ~nums:4
        (Json.to_string (Spec.to_json spec))
      |> List.iter
           (check_json ~name [ ("Spec.of_json", ignore_ok Spec.of_json) ]))
    Spec.builtins

let test_trace_dumps () =
  let rng = Random.State.make [| 31 |] in
  List.iter
    (fun f ->
      mutants ~rng ~flips:16 ~cuts:8 ~dups:4 ~nums:8
        (read (Filename.concat "fixtures" f))
      |> List.iter (fun (label, text) ->
             never_raises
               ~what:(Printf.sprintf "%s [%s] Trace_io.parse" f label)
               (fun t -> Result.map ignore (Trace_io.parse t))
               text))
    [ "clean_trace.txt"; "corrupt_trace.txt" ]

(* The crash-safe logs and snapshots are read from files: each mutant
   is written over [path], then read back with [load path]. *)
let check_file ~name ~path load (label, text) =
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  never_raises ~what:(Printf.sprintf "%s [%s]" name label) load path

let with_temp_file f =
  let path = Filename.temp_file "fuzz" ".log" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Journal.snapshot_path path ])
    (fun () -> f path)

let ok_exn = function Ok v -> v | Error e -> Alcotest.fail e

(* The committed churn trace decided from an empty engine: its journal
   bytes and an engine snapshot after every 50 decisions. *)
let churn_journal path =
  let trace =
    ok_exn (Request.load_trace ~path:"fixtures/admit_churn_smoke.json")
  in
  let trace_hash = Request.trace_hash trace in
  let eng =
    ok_exn
      (Engine.create ~phy:trace.Request.tr_phy
         ~num_sources:trace.Request.tr_sources ~params:trace.Request.tr_params)
  in
  let w = ok_exn (Journal.create ~path ~trace_hash) in
  let snapshots =
    List.concat
      (List.mapi
         (fun i req ->
           Journal.append w
             {
               Journal.jr_seq = i;
               jr_request = req;
               jr_decision = Engine.decide eng req;
             };
           if i mod 50 = 49 then [ Engine.snapshot eng ] else [])
         trace.Request.tr_requests)
  in
  Journal.close w;
  (trace, trace_hash, read path, snapshots)

let test_journals () =
  let rng = Random.State.make [| 32 |] in
  with_temp_file (fun path ->
      let _, trace_hash, text, _ = churn_journal path in
      mutants ~rng ~flips:16 ~cuts:8 ~dups:4 ~nums:8 text
      |> List.iter
           (check_file ~name:"admit_churn_smoke journal Journal.load" ~path
              (fun path -> Journal.load ~path ~trace_hash)))

let test_snapshots () =
  let rng = Random.State.make [| 33 |] in
  with_temp_file (fun path ->
      let trace, trace_hash, _, snapshots = churn_journal path in
      let restore path =
        match Journal.load_snapshot ~path ~trace_hash with
        | None -> Ok ()
        | Some (_, state) ->
          Result.map ignore
            (Engine.restore ~phy:trace.Request.tr_phy
               ~num_sources:trace.Request.tr_sources
               ~params:trace.Request.tr_params state)
      in
      List.iteri
        (fun k state ->
          ok_exn (Journal.save_snapshot ~path ~trace_hash ~seq:0 state);
          mutants ~rng ~flips:8 ~cuts:4 ~dups:2 ~nums:8
            (read (Journal.snapshot_path path))
          |> List.iter
               (check_file
                  ~name:(Printf.sprintf "snapshot %d Engine.restore" k)
                  ~path:(Journal.snapshot_path path)
                  (fun _ -> restore path)))
        snapshots)

(* The smoke campaign's checkpoint, every cell run in this process. *)
let test_checkpoints () =
  let rng = Random.State.make [| 34 |] in
  let spec = List.assoc "smoke" Spec.builtins in
  with_temp_file (fun path ->
      let w = ok_exn (Checkpoint.open_for_append ~path ~spec ~valid_bytes:0) in
      Array.iter
        (fun c ->
          Checkpoint.append w ~index:c.Grid.index ~key:(Grid.key c)
            (Grid.result_to_json (Grid.run_cell spec c)))
        (Grid.cells spec);
      Checkpoint.close w;
      let load path =
        Result.bind (Checkpoint.load ~path ~spec ()) (fun l ->
            Json.list_of Grid.result_of_json
              (Json.List (List.map snd l.Checkpoint.entries)))
      in
      mutants ~rng ~flips:16 ~cuts:8 ~dups:4 ~nums:8 (read path)
      |> List.iter
           (check_file ~name:"smoke checkpoint Checkpoint.load" ~path load))

(* The subcommands that read a file, evaluated in this process on
   mutants of the fixtures they read, each mutant written over one file:
   every run exits 0, 1 or 2 (never 124, a usage error, or 125, an
   uncaught exception), and an exit 2 writes exactly one stderr line.
   [readers] pairs a fixture name with the command line for its mutant
   at [path]; [None] skips the fixture. *)
let check_cli ~seed ~name cmd readers =
  let rng = Random.State.make [| seed |] in
  Test_cli.with_tmp_dir (fun dir ->
      List.iter
        (fun f ->
          match readers f with
          | None -> ()
          | Some args ->
            let path = Filename.concat dir f in
            mutants ~rng ~flips:8 ~cuts:4 ~dups:2 ~nums:4
              (read (Filename.concat "fixtures" f))
            |> List.iter (fun (label, text) ->
                   Out_channel.with_open_bin path (fun oc ->
                       output_string oc text);
                   let r = Test_cli.eval cmd (args path) in
                   let what =
                     Printf.sprintf "%s %s [%s]: exit %d, stderr %S" name f
                       label r.Test_cli.code r.Test_cli.err
                   in
                   if not (List.mem r.Test_cli.code [ 0; 1; 2 ]) then
                     Alcotest.fail what;
                   if r.Test_cli.code = 2 && Test_cli.lines r.Test_cli.err <> 1
                   then Alcotest.fail (what ^ ": not one line")))
        (fixtures ".json" @ [ "clean_trace.txt"; "corrupt_trace.txt" ]))

let prefixed prefixes f =
  List.exists (fun prefix -> String.starts_with ~prefix f) prefixes

let when_ ok args f = if ok f then Some (args f) else None

let admit_traces = prefixed [ "admit_churn"; "admit_trace" ]

let test_cli_lint () =
  let lint flag ok = when_ ok (fun _ path -> [ flag; path ]) in
  check_cli ~seed:35 ~name:"ddcr_lint --check-repro" Cli.Ddcr_lint.cmd
    (lint "--check-repro" (fun f ->
         Astring_contains.contains f "repro"
         && Filename.check_suffix f ".json"));
  check_cli ~seed:36 ~name:"ddcr_lint --check-trace" Cli.Ddcr_lint.cmd
    (lint "--check-trace" (fun f -> Filename.check_suffix f "_trace.txt"));
  check_cli ~seed:37 ~name:"ddcr_lint --check-perfetto" Cli.Ddcr_lint.cmd
    (lint "--check-perfetto" (prefixed [ "perfetto_" ]));
  check_cli ~seed:38 ~name:"ddcr_lint --check-admit-trace" Cli.Ddcr_lint.cmd
    (lint "--check-admit-trace" admit_traces)

let test_cli_topo () =
  let spec f =
    not (prefixed [ "topo_fault_"; "topo_obs_fault"; "topo_chaos" ] f)
  in
  check_cli ~seed:39 ~name:"ddcr_topo check" Cli.Ddcr_topo.cmd
    (when_
       (fun f -> prefixed [ "topo_" ] f && spec f)
       (fun _ path -> [ "check"; path ]));
  check_cli ~seed:40 ~name:"ddcr_topo check --fault-plan" Cli.Ddcr_topo.cmd
    (when_
       (prefixed [ "topo_fault_"; "topo_obs_fault" ])
       (fun f path ->
         let tree =
           if prefixed [ "topo_obs" ] f then "topo_obs_tree.json"
           else "topo_tree.json"
         in
         [ "check"; Filename.concat "fixtures" tree; "--fault-plan"; path ]))

let test_cli_admit_campaign_model () =
  check_cli ~seed:41 ~name:"ddcr_admit run" Cli.Ddcr_admit.cmd
    (when_ admit_traces (fun _ path -> [ "run"; path ]));
  check_cli ~seed:42 ~name:"ddcr_campaign compare --current"
    Cli.Ddcr_campaign.cmd
    (when_ (prefixed [ "BENCH_" ]) (fun _ path ->
         [
           "compare"; "--baseline"; "fixtures/BENCH_smoke_golden.json";
           "--current"; path;
         ]));
  check_cli ~seed:43 ~name:"ddcr_model check --params" Cli.Ddcr_model.cmd
    (when_ (prefixed [ "model_params" ]) (fun _ path ->
         [
           "check"; "--params"; path; "-s"; "uniform"; "-n"; "2";
           "--horizon-ms"; "1"; "--depth"; "12"; "--budget"; "1";
         ]))

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "mutated JSON fixtures never raise" `Quick
          test_json_fixtures;
        Alcotest.test_case "mutated topology fault plans never raise" `Quick
          test_topology_fault_plans;
        Alcotest.test_case "mutated builtin specs never raise" `Quick
          test_builtin_specs;
        Alcotest.test_case "mutated trace dumps never raise" `Quick
          test_trace_dumps;
        Alcotest.test_case "mutated admission journals never raise" `Quick
          test_journals;
        Alcotest.test_case "mutated engine snapshots never raise" `Quick
          test_snapshots;
        Alcotest.test_case "mutated campaign checkpoints never raise" `Quick
          test_checkpoints;
        Alcotest.test_case "ddcr_lint on mutated files: exit 0-2" `Quick
          test_cli_lint;
        Alcotest.test_case "ddcr_topo check on mutated files: exit 0-2" `Quick
          test_cli_topo;
        Alcotest.test_case
          "ddcr_admit, ddcr_campaign, ddcr_model on mutated files: exit 0-2"
          `Quick test_cli_admit_campaign_model;
      ] );
  ]
