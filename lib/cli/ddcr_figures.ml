(* ddcr_figures: regenerate the paper's figures as CSV files.

   Example:
     ddcr_figures --out results/      # writes fig1.csv, fig2.csv, ... *)

module Table = Rtnet_util.Table
module Xi = Rtnet_core.Xi
module Multi_tree = Rtnet_core.Multi_tree

open Cmdliner

let out_dir =
  Arg.(
    value & opt string "results"
    & Cli_common.out_info ~docv:"DIR" "Output directory for CSV files.")

let fig1 () =
  let m = 4 and t = 64 in
  let tab = Xi.table ~m ~t in
  let csv = Table.create [ "k"; "xi_exact"; "xi_asymptotic" ] in
  for k = 0 to t do
    Table.add_row csv
      [
        string_of_int k;
        string_of_int tab.(k);
        (if k >= 2 then Printf.sprintf "%.6f" (Xi.tilde ~m ~t (float_of_int k))
         else "");
      ]
  done;
  csv

let fig2 () =
  let b = Xi.table ~m:2 ~t:64 and q = Xi.table ~m:4 ~t:64 in
  let csv = Table.create [ "k"; "xi_binary"; "xi_quaternary" ] in
  for k = 2 to 64 do
    Table.add_int_row csv [ k; b.(k); q.(k) ]
  done;
  csv

let tightness () =
  let csv = Table.create [ "m"; "t"; "max_gap"; "eq13_bound"; "eq14_bound" ] in
  List.iter
    (fun (m, n) ->
      let t = Rtnet_util.Int_math.pow m n in
      Table.add_row csv
        [
          string_of_int m;
          string_of_int t;
          Printf.sprintf "%.6f" (Xi.max_gap ~m ~t);
          Printf.sprintf "%.6f" (Xi.gap_bound ~m *. float_of_int t);
          Printf.sprintf "%.6f" (Xi.gap_bound_universal *. float_of_int t);
        ])
    [ (2, 6); (2, 10); (3, 4); (3, 6); (4, 3); (4, 5); (5, 4); (8, 3); (9, 3) ];
  csv

let p2 () =
  let csv = Table.create [ "m"; "t"; "v"; "u"; "exhaustive"; "bound" ] in
  List.iter
    (fun (m, t, v) ->
      for u = 2 * v to t * v do
        Table.add_row csv
          [
            string_of_int m;
            string_of_int t;
            string_of_int v;
            string_of_int u;
            string_of_int (Multi_tree.worst_exact ~m ~t ~u ~v);
            Printf.sprintf "%.6f" (Multi_tree.bound ~m ~t ~u ~v);
          ]
      done)
    [ (2, 8, 2); (2, 8, 4); (4, 16, 2); (3, 9, 3) ];
  csv

let arbitrated () =
  let csv = Table.create [ "m"; "t"; "k"; "zeta"; "xi" ] in
  List.iter
    (fun (m, t) ->
      let z = Rtnet_core.Xi_arb.table ~m ~t and x = Xi.table ~m ~t in
      for k = 0 to t do
        Table.add_int_row csv [ m; t; k; z.(k); x.(k) ]
      done)
    [ (2, 64); (4, 64) ];
  csv

let expected () =
  let csv = Table.create [ "m"; "t"; "k"; "expected"; "worst" ] in
  List.iter
    (fun (m, t) ->
      for k = 0 to t do
        Table.add_row csv
          [
            string_of_int m;
            string_of_int t;
            string_of_int k;
            Printf.sprintf "%.6f" (Xi.expected ~m ~t ~k);
            string_of_int (Xi.exact ~m ~t ~k);
          ]
      done)
    [ (2, 64); (4, 64) ];
  csv

let main dir =
  Result.map
    (fun () ->
      let save name csv =
        let path = Table.save_csv ~dir ~name csv in
        Printf.printf "wrote %s\n" path
      in
      save "fig1_quaternary_64" (fig1 ());
      save "fig2_binary_vs_quaternary" (fig2 ());
      save "tightness_eq12_14" (tightness ());
      save "p2_bound_vs_exhaustive" (p2 ());
      save "arbitrated_zeta_vs_xi" (arbitrated ());
      save "expected_vs_worst" (expected ());
      0)
    (Cli_common.check_out_dir ~flag:"--out" ~create:true (Some dir))

let cmd =
  Cli_common.cmd
    (Cmd.info "ddcr_figures" ~doc:"Regenerate the paper's figures as CSV")
    Term.(const main $ out_dir)
