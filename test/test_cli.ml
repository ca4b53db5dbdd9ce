(* The tools of rtnet.cli evaluated in this process: a command returns
   its exit code, so a test runs it on an argument vector with stdout
   and stderr sent to files, and forks nothing. *)

module Cli = Rtnet_cli

type run = { code : int; out : string; err : string }

let flush_all () =
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  flush stdout;
  flush stderr

(* [eval cmd args] runs [cmd] as its tool would run on [args]. *)
let eval cmd args =
  let files =
    [ Filename.temp_file "cli" ".out"; Filename.temp_file "cli" ".err" ]
  in
  let fds = [ Unix.stdout; Unix.stderr ] in
  flush_all ();
  let saved = List.map (fun fd -> Unix.dup fd) fds in
  List.iter2
    (fun fd path ->
      let f = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      Unix.dup2 f fd;
      Unix.close f)
    fds files;
  let code =
    Fun.protect
      ~finally:(fun () ->
        flush_all ();
        List.iter2 (fun s fd -> Unix.dup2 s fd) saved fds;
        List.iter Unix.close saved)
      (fun () ->
        Cmdliner.Cmd.eval'
          ~argv:(Array.of_list (Cmdliner.Cmd.name cmd :: args))
          cmd)
  in
  match
    List.map
      (fun p ->
        let s = In_channel.with_open_bin p In_channel.input_all in
        Sys.remove p;
        s)
      files
  with
  | [ out; err ] -> { code; out; err }
  | _ -> assert false

let lines s = List.length (String.split_on_char '\n' s) - 1

let describe args r =
  Printf.sprintf "%s: exit %d, stderr %S" (String.concat " " args) r.code
    r.err

let occurrences ~sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let with_tmp_dir f =
  let dir = Filename.temp_dir "rtnet_cli" "" in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      rm dir)
    (fun () -> f dir)

let fixture f = Filename.concat "fixtures" f

(* Every subcommand that reads a JSON or trace file, pointed at [path]
   and writing what it writes into [dir]. *)
let file_readers ~dir path =
  let o name = Filename.concat dir name in
  [
    (Cli.Ddcr_admit.cmd, [ "run"; path ]);
    (Cli.Ddcr_admit.cmd, [ "gen"; "-o"; o "g.json"; "--params"; path ]);
    (Cli.Ddcr_chaos.cmd, [ "replay"; path ]);
    (Cli.Ddcr_chaos.cmd, [ "search"; "--config"; path ]);
    (Cli.Ddcr_chaos.cmd, [ "shrink"; "--repro"; path; "-o"; o "s.json" ]);
    (Cli.Ddcr_chaos.cmd, [ "search"; "--admit-params"; path ]);
    (Cli.Ddcr_campaign.cmd, [ "run"; "--spec"; path; "-o"; o "r.json" ]);
    ( Cli.Ddcr_campaign.cmd,
      [
        "compare"; "--baseline"; fixture "BENCH_smoke_golden.json";
        "--current"; path;
      ] );
    (Cli.Ddcr_lint.cmd, [ "--check-admit-trace"; path ]);
    (Cli.Ddcr_lint.cmd, [ "--check-trace"; path ]);
    (Cli.Ddcr_lint.cmd, [ "--check-perfetto"; path ]);
    (Cli.Ddcr_lint.cmd, [ "--check-repro"; path ]);
    (Cli.Ddcr_topo.cmd, [ "check"; path ]);
    ( Cli.Ddcr_model.cmd,
      [
        "check"; "--params"; path; "-s"; "uniform"; "-n"; "2"; "--horizon-ms";
        "1"; "--depth"; "12"; "--budget"; "1";
      ] );
  ]

(* A file that does not parse, and a directory where a file belongs:
   every reader exits 2 with one stderr line naming the path once. *)
let test_unreadable_inputs () =
  with_tmp_dir (fun dir ->
      let bad = Filename.concat dir "bad.json" in
      Out_channel.with_open_bin bad (fun oc ->
          output_string oc {|{"a": [1, 2|});
      let sub = Filename.concat dir "a_directory.json" in
      Sys.mkdir sub 0o755;
      List.iter
        (fun path ->
          List.iter
            (fun (cmd, args) ->
              let r = eval cmd args in
              let what = describe (Cmdliner.Cmd.name cmd :: args) r in
              Alcotest.(check int) what 2 r.code;
              Alcotest.(check int) (what ^ ": one line") 1 (lines r.err);
              Alcotest.(check int)
                (what ^ ": names the path once")
                1
                (occurrences ~sub:path r.err))
            (file_readers ~dir path))
        [ bad; sub ])

(* ddcr_lint runs one mode: two of them, or a file check next to the
   scenario lint's --bounded/--all-scenarios, exit 2 before any
   output, and nothing is dumped. *)
let test_lint_modes () =
  with_tmp_dir (fun dir ->
      let dump = Filename.concat dir "x.trace" in
      List.iter
        (fun args ->
          let r = eval Cli.Ddcr_lint.cmd args in
          let what = describe args r in
          Alcotest.(check int) what 2 r.code;
          Alcotest.(check int) (what ^ ": one line") 1 (lines r.err);
          Alcotest.(check string) (what ^ ": no output") "" r.out)
        [
          [
            "--check-trace"; fixture "corrupt_trace.txt"; "--check-perfetto";
            fixture "perfetto_golden.json";
          ];
          [ "--check-trace"; fixture "clean_trace.txt"; "--dump-trace"; dump ];
          [ "--check-repro"; fixture "chaos_repro_min.json"; "--bounded" ];
          [
            "--check-admit-trace"; fixture "admit_trace_bad.json";
            "--all-scenarios";
          ];
          [ "--dump-trace"; dump; "--all-scenarios" ];
        ];
      Alcotest.(check bool) "nothing dumped" false (Sys.file_exists dump))

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "unreadable inputs: exit 2, one line, path once"
          `Quick test_unreadable_inputs;
        Alcotest.test_case "ddcr_lint modes exclude each other" `Quick
          test_lint_modes;
      ] );
  ]
