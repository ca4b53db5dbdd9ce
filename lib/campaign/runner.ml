module Diagnostic = Rtnet_analysis.Diagnostic

type options = {
  jobs : int;
  out : string;
  journal : string option;
  resume : bool;
  max_cells : int option;
  progress : (done_:int -> total:int -> key:string -> elapsed_s:float -> unit)
             option;
  telemetry : bool;
  on_cell :
    worker:int -> key:string -> t0:float -> t1:float -> ok:bool -> unit;
}

let default_options ~out =
  {
    jobs = Pool.default_jobs ();
    out;
    journal = None;
    resume = false;
    max_cells = None;
    progress = None;
    telemetry = false;
    on_cell = (fun ~worker:_ ~key:_ ~t0:_ ~t1:_ ~ok:_ -> ());
  }

let order_failures l =
  List.map snd
    (List.sort (fun (a, _) (b, _) -> compare (a : int) b) l)

type error =
  | Invalid_spec of string
  | Lint_rejected of Diagnostic.t list
  | Checkpoint_error of string
  | Worker_failure of string

let pp_error fmt = function
  | Invalid_spec msg -> Format.fprintf fmt "invalid spec: %s" msg
  | Lint_rejected diags ->
    Format.fprintf fmt "configuration lint rejected the campaign:";
    List.iter
      (fun d ->
        if d.Diagnostic.severity = Diagnostic.Error then
          Format.fprintf fmt "@\n  %a" Diagnostic.pp d)
      diags
  | Checkpoint_error msg -> Format.fprintf fmt "checkpoint: %s" msg
  | Worker_failure msg -> Format.fprintf fmt "worker failure: %s" msg

type outcome =
  | Complete of Report.t
  | Interrupted of { completed : int; total : int }

let ( let* ) = Result.bind

let journal_path options =
  match options.journal with
  | Some p -> p
  | None -> Checkpoint.journal_path ~out:options.out

let load_journal options spec =
  let path = journal_path options in
  if not options.resume then
    (* A fresh run must not silently absorb a stale journal. *)
    match Checkpoint.remove ~path with
    | () -> Ok ([], 0)
    | exception Sys_error e -> Error e
  else
    let* { Checkpoint.entries; valid_bytes } =
      (* Truncation warnings (torn tail line, torn header) go to
         stderr: the resume proceeds, but the operator should know a
         kill landed mid-write. *)
      Checkpoint.load
        ~on_warning:(fun w -> Printf.eprintf "ddcr_campaign: warning: %s\n%!" w)
        ~path ~spec ()
    in
    List.fold_left
      (fun acc (index, rj) ->
        let* acc = acc in
        let* r = Grid.result_of_json rj in
        Ok ((index, r) :: acc))
      (Ok []) entries
    |> Result.map (fun cells -> (List.rev cells, valid_bytes))

let run_with cell options spec =
  let t0 = Unix.gettimeofday () in
  let* () =
    Result.map_error (fun e -> Invalid_spec e) (Spec.validate spec)
  in
  let diags = Grid.lint spec in
  let* () =
    if List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags
    then Error (Lint_rejected diags)
    else Ok ()
  in
  let cells = Grid.cells spec in
  let total = Array.length cells in
  let* recovered, valid_bytes =
    Result.map_error (fun e -> Checkpoint_error e) (load_journal options spec)
  in
  let results : (int, Grid.result_) Hashtbl.t = Hashtbl.create total in
  List.iter
    (fun (index, r) ->
      if index < 0 || index >= total then ()
      else Hashtbl.replace results index r)
    recovered;
  let pending =
    Array.of_list
      (List.filter
         (fun c -> not (Hashtbl.mem results c.Grid.index))
         (Array.to_list cells))
  in
  let report_progress key elapsed_s =
    match options.progress with
    | None -> ()
    | Some f -> f ~done_:(Hashtbl.length results) ~total ~key ~elapsed_s
  in
  let* () =
    if Array.length pending = 0 then Ok ()
    else begin
      let path = journal_path options in
      let* journal =
        Result.map_error
          (fun e -> Checkpoint_error e)
          (Checkpoint.open_for_append ~path ~spec ~valid_bytes)
      in
      let failures = ref [] in
      let fail i msg =
        (* Keyed by submission position: events arrive in completion
           order, but failures are reported in submission order. *)
        let key = Grid.key pending.(i) in
        failures := (i, Printf.sprintf "%s: %s" key msg) :: !failures
      in
      let worker_probe tm key ok =
        options.on_cell ~worker:tm.Pool.worker ~key ~t0:tm.Pool.t0
          ~t1:tm.Pool.t1 ~ok
      in
      (* [max_cells] stops dispatching after the N-th event and ignores
         whatever was still in flight, so exactly N cells count. *)
      let cap = Option.value options.max_cells ~default:max_int in
      let seen = ref 0 in
      let on_event ev =
        if !seen < cap then begin
          incr seen;
          match ev with
          | Pool.Completed (i, tm, r) ->
            let c = pending.(i) in
            let key = Grid.key c in
            worker_probe tm key true;
            Checkpoint.append journal ~index:c.Grid.index ~key
              (Grid.result_to_json r);
            Hashtbl.replace results c.Grid.index r;
            report_progress key r.Grid.r_elapsed_s
          | Pool.Task_error (i, tm, msg) ->
            worker_probe tm (Grid.key pending.(i)) false;
            fail i msg
          | Pool.Gave_up { position; attempts; reason } ->
            fail position
              (Printf.sprintf "%s after %d attempt(s)" (Pool.reason_text reason)
                 attempts)
        end
      in
      (* Journal a cell whose worker was lost before it is retried: if
         the retry is lost too, the journal shows exactly which cells
         were, and a resumed run re-executes them. *)
      let on_retry ~position ~attempt:_ ~reason =
        let c = pending.(position) in
        Checkpoint.append_failed journal ~index:c.Grid.index ~key:(Grid.key c)
          ~reason:(reason ^ "; retrying")
      in
      Fun.protect
        ~finally:(fun () -> Checkpoint.close journal)
        (fun () ->
          ignore
            (Pool.supervise ~jobs:options.jobs ~on_retry
               ~should_stop:(fun () -> !seen >= cap)
               ~on_event cell pending));
      match !failures with
      | [] -> Ok ()
      | fs -> Error (Worker_failure (String.concat "; " (order_failures fs)))
    end
  in
  if Hashtbl.length results < total then
    Ok (Interrupted { completed = Hashtbl.length results; total })
  else begin
    let entries =
      List.init total (fun i ->
          {
            Report.ce_index = i;
            ce_key = Grid.key cells.(i);
            ce_result = Hashtbl.find results i;
          })
    in
    let report =
      {
        Report.campaign = spec.Spec.name;
        spec_hash = Spec.hash spec;
        spec;
        jobs = options.jobs;
        wall_clock_s = Unix.gettimeofday () -. t0;
        cells = entries;
      }
    in
    Report.write ~path:options.out report;
    Checkpoint.remove ~path:(journal_path options);
    Ok (Complete report)
  end

let run options spec =
  run_with (Grid.run_cell ~telemetry:options.telemetry spec) options spec
