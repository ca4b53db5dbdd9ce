module Json = Rtnet_util.Json
module Run = Rtnet_stats.Run

let ( let* ) = Result.bind

type cell_entry = {
  ce_index : int;
  ce_key : string;
  ce_result : Grid.result_;
}

type t = {
  campaign : string;
  spec_hash : string;
  spec : Spec.t;
  jobs : int;
  wall_clock_s : float;
  cells : cell_entry list;
}

let schema_version = 1

let cell_to_json ce =
  Json.Obj
    [
      ("cell", Json.Int ce.ce_index);
      ("key", Json.String ce.ce_key);
      ("result", Grid.result_to_json ce.ce_result);
    ]

let cell_of_json j =
  let* index = Result.bind (Json.field "cell" j) Json.get_int in
  let* key = Result.bind (Json.field "key" j) Json.get_string in
  let* result = Result.bind (Json.field "result" j) Grid.result_of_json in
  Ok { ce_index = index; ce_key = key; ce_result = result }

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("campaign", Json.String r.campaign);
      ("spec_hash", Json.String r.spec_hash);
      ("jobs", Json.Int r.jobs);
      ("wall_clock_s", Json.Float r.wall_clock_s);
      ("spec", Spec.to_json r.spec);
      ("cells", Json.List (List.map cell_to_json r.cells));
    ]

let of_json j =
  let* v = Result.bind (Json.field "schema_version" j) Json.get_int in
  let* () =
    if v = schema_version then Ok ()
    else Error (Printf.sprintf "unsupported report schema version %d" v)
  in
  let* campaign = Result.bind (Json.field "campaign" j) Json.get_string in
  let* spec_hash = Result.bind (Json.field "spec_hash" j) Json.get_string in
  let* jobs = Result.bind (Json.field "jobs" j) Json.get_int in
  let* wall = Result.bind (Json.field "wall_clock_s" j) Json.get_float in
  let* spec = Result.bind (Json.field "spec" j) Spec.of_json in
  let* () =
    if Spec.hash spec = spec_hash then Ok ()
    else
      Error
        (Printf.sprintf
           "stored spec_hash %s does not match the embedded spec (%s) — \
            corrupted or hand-edited report"
           spec_hash (Spec.hash spec))
  in
  let* cells = Result.bind (Json.field "cells" j) (Json.list_of cell_of_json) in
  Ok
    {
      campaign;
      spec_hash;
      spec;
      jobs;
      wall_clock_s = wall;
      cells;
    }

let write ~path r = Json.to_file path (to_json r)

let load ~path = Json.load_file path of_json

let timing_keys = [ "elapsed_s"; "wall_clock_s"; "jobs" ]

let rec strip_timings = function
  | Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if List.mem k timing_keys then None else Some (k, strip_timings v))
         kvs)
  | Json.List xs -> Json.List (List.map strip_timings xs)
  | j -> j

let fingerprint r =
  Digest.to_hex (Digest.string (Json.to_string (strip_timings (to_json r))))

(* -------------------- regression gate -------------------- *)

type tolerance = {
  tol_miss_ratio : float;
  tol_latency_rel : float;
  tol_delivered : int;
}

let default_tolerance =
  { tol_miss_ratio = 0.; tol_latency_rel = 0.; tol_delivered = 0 }

type regression = {
  reg_key : string;
  reg_metric : string;
  reg_baseline : float;
  reg_current : float;
}

let pp_regression fmt r =
  Format.fprintf fmt "%s: %s regressed %g -> %g" r.reg_key r.reg_metric
    r.reg_baseline r.reg_current

let cell_regressions tol key (base : Run.metrics) (cur : Run.metrics) =
  let regs = ref [] in
  let flag metric b c = regs := { reg_key = key; reg_metric = metric;
                                  reg_baseline = b; reg_current = c } :: !regs
  in
  if cur.Run.miss_ratio > base.Run.miss_ratio +. tol.tol_miss_ratio then
    flag "miss_ratio" base.Run.miss_ratio cur.Run.miss_ratio;
  if cur.Run.delivered < base.Run.delivered - tol.tol_delivered then
    flag "delivered" (float_of_int base.Run.delivered)
      (float_of_int cur.Run.delivered);
  let lat metric b c =
    (* Relative slack; a zero baseline admits no slack, which is fine
       for deterministic simulators. *)
    if c > b *. (1. +. tol.tol_latency_rel) then flag metric b c
  in
  lat "worst_latency"
    (float_of_int base.Run.worst_latency)
    (float_of_int cur.Run.worst_latency);
  lat "mean_latency" base.Run.mean_latency cur.Run.mean_latency;
  List.rev !regs

let compare_reports ~tolerance ~baseline ~current =
  if baseline.spec_hash <> current.spec_hash then
    Error
      (Printf.sprintf
         "spec mismatch: baseline %s vs current %s — the campaigns ran \
          different sweeps and their cells are not comparable"
         baseline.spec_hash current.spec_hash)
  else begin
    let tbl = Hashtbl.create 64 in
    List.iter (fun ce -> Hashtbl.replace tbl ce.ce_key ce) baseline.cells;
    let missing =
      List.filter
        (fun ce -> not (List.exists (fun c -> c.ce_key = ce.ce_key) current.cells))
        baseline.cells
    in
    match missing with
    | ce :: _ ->
      Error
        (Printf.sprintf "cell %s present in baseline but not in current run"
           ce.ce_key)
    | [] ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | ce :: rest -> (
          match Hashtbl.find_opt tbl ce.ce_key with
          | None ->
            Error
              (Printf.sprintf
                 "cell %s present in current run but not in baseline" ce.ce_key)
          | Some base_ce ->
            let regs =
              cell_regressions tolerance ce.ce_key
                base_ce.ce_result.Grid.r_metrics ce.ce_result.Grid.r_metrics
            in
            go (List.rev_append regs acc) rest)
      in
      go [] current.cells
  end
