module Prng = Rtnet_util.Prng
module Oracle = Rtnet_analysis.Oracle

type config = {
  so_search : (Plain.env, Plain.space) Search.config;
  so_rounds : int;
  so_wall_budget_s : float option;
  so_out_dir : string option;
}

type result = {
  so_rounds_run : int;
  so_examined : int;
  so_findings : int;
  so_gave_up : int;
  so_repro_paths : string list;
  so_exhausted : bool;
}

let run ?(log = fun (_ : string) -> ()) config =
  let t0 = Unix.gettimeofday () in
  let seen = Hashtbl.create 32 in
  let paths = ref [] in
  let examined = ref 0 in
  let gave_up = ref 0 in
  let exhausted = ref false in
  let rounds_run = ref 0 in
  let remaining () =
    Option.map
      (fun b -> b -. (Unix.gettimeofday () -. t0))
      config.so_wall_budget_s
  in
  (try
     for r = 0 to config.so_rounds - 1 do
       (match remaining () with
       | Some left when left <= 0. ->
         exhausted := true;
         raise Exit
       | _ -> ());
       let round_config =
         {
           config.so_search with
           Search.s_seed = Prng.derive config.so_search.Search.s_seed r;
           s_wall_budget_s =
             (match remaining () with
             | None -> config.so_search.Search.s_wall_budget_s
             | Some left -> Some left);
         }
       in
       log (Printf.sprintf "soak round %d/%d" (r + 1) config.so_rounds);
       let res = Search.run ~log (module Plain) round_config in
       incr rounds_run;
       examined := !examined + res.Search.r_examined;
       gave_up := !gave_up + List.length res.Search.r_gave_up;
       if res.Search.r_exhausted then exhausted := true;
       List.iter
         (fun f ->
           let fp = f.Search.fi_report.Subject.rp_fingerprint in
           if not (Hashtbl.mem seen fp) then begin
             Hashtbl.replace seen fp ();
             log
               (Printf.sprintf "new finding (round %d, candidate %d): %s"
                  (r + 1) f.Search.fi_index
                  (Oracle.describe f.Search.fi_report.Subject.rp_verdict));
             match config.so_out_dir with
             | None -> ()
             | Some dir ->
               let repro =
                 Repro.make ~env:config.so_search.Search.s_env
                   ~candidate:f.Search.fi_candidate
                   ~report:f.Search.fi_report
                   ~note:
                     (Printf.sprintf "soak round=%d seed=%d candidate=%d" r
                        round_config.Search.s_seed f.Search.fi_index)
               in
               let path =
                 Filename.concat dir
                   (Printf.sprintf "chaos_repro_%s.json" (String.sub fp 0 12))
               in
               Repro.save (module Plain) ~path repro;
               paths := path :: !paths
           end)
         res.Search.r_findings
     done
   with Exit -> ());
  {
    so_rounds_run = !rounds_run;
    so_examined = !examined;
    so_findings = Hashtbl.length seen;
    so_gave_up = !gave_up;
    so_repro_paths = List.rev !paths;
    so_exhausted = !exhausted;
  }
