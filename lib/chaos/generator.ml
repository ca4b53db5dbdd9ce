module Prng = Rtnet_util.Prng
module Json = Rtnet_util.Json
module Fault_plan = Rtnet_channel.Fault_plan
module Topo = Rtnet_topology.Topo
module Instance = Rtnet_workload.Instance

let ( let* ) = Result.bind

type budget = {
  g_max_events : int;
  g_garble : bool;
  g_misperceive : bool;
  g_crash : bool;
  g_max_rate : float;
  g_max_crash_fraction : float;
}

let default_budget =
  {
    g_max_events = 4;
    g_garble = true;
    g_misperceive = true;
    g_crash = true;
    g_max_rate = 0.5;
    g_max_crash_fraction = 0.3;
  }

let budget_to_json b =
  Json.Obj
    [
      ("max_events", Json.Int b.g_max_events);
      ("garble", Json.Bool b.g_garble);
      ("misperceive", Json.Bool b.g_misperceive);
      ("crash", Json.Bool b.g_crash);
      ("max_rate", Json.Float b.g_max_rate);
      ("max_crash_fraction", Json.Float b.g_max_crash_fraction);
    ]

let budget_of_json j =
  let d = default_budget in
  let* max_events =
    Json.field_or "max_events" ~default:d.g_max_events Json.get_int j
  in
  let* garble = Json.field_or "garble" ~default:d.g_garble Json.get_bool j in
  let* misperceive =
    Json.field_or "misperceive" ~default:d.g_misperceive Json.get_bool j
  in
  let* crash = Json.field_or "crash" ~default:d.g_crash Json.get_bool j in
  let* max_rate =
    Json.field_or "max_rate" ~default:d.g_max_rate Json.get_float j
  in
  let* max_crash_fraction =
    Json.field_or "max_crash_fraction" ~default:d.g_max_crash_fraction
      Json.get_float j
  in
  Ok
    {
      g_max_events = max_events;
      g_garble = garble;
      g_misperceive = misperceive;
      g_crash = crash;
      g_max_rate = max_rate;
      g_max_crash_fraction = max_crash_fraction;
    }

let check_budget b =
  if b.g_max_events < 1 then invalid_arg "Generator.sample: max_events < 1";
  if not (b.g_garble || b.g_misperceive || b.g_crash) then
    invalid_arg "Generator.sample: every fault family disabled";
  if not (b.g_max_rate > 0. && b.g_max_rate <= 1.) then
    invalid_arg "Generator.sample: max_rate out of (0, 1]";
  if not (b.g_max_crash_fraction > 0. && b.g_max_crash_fraction <= 1.) then
    invalid_arg "Generator.sample: max_crash_fraction out of (0, 1]"

(* Domain tag for the generator's stream family, so candidate plans
   can never collide with the per-run seeds Search derives from the
   same root seed. *)
let stream_tag = 0xC4A0

type kind = Garble | Misperceive | Crash

(* A rate in [lo, hi) — the floor keeps sampled severities observable
   (a 1e-9 garble rate injects nothing over a short horizon). *)
let rate_in rng ~lo ~hi = lo +. Prng.float rng (Float.max (hi -. lo) 1e-6)

let sample_garble rng ~max_rate =
  if Prng.bool rng then Fault_plan.iid (rate_in rng ~lo:0.02 ~hi:max_rate)
  else
    (* Transition probabilities strictly inside (0, 1): the validator
       rejects the degenerate endpoints. *)
    let p_enter = rate_in rng ~lo:0.005 ~hi:0.3 in
    let p_exit = rate_in rng ~lo:0.05 ~hi:0.6 in
    let r1 = Prng.float rng max_rate and r2 = Prng.float rng max_rate in
    Fault_plan.gilbert_elliott ~p_enter ~p_exit ~rate_good:(Float.min r1 r2)
      ~rate_bad:(Float.max r1 r2)

let sample_misperception rng ~max_rate =
  Fault_plan.misperceive (rate_in rng ~lo:0.005 ~hi:(Float.min max_rate 0.25))

(* Crash windows of one source must not overlap; draw up to 8 times,
   then give up on this event (the plan just ends up smaller).  [pick]
   draws the target station — the plain sampler draws uniformly over
   the instance's sources, the topology sampler over the segment's
   station set including incoming bridge stations. *)
let sample_crash rng ~budget ~horizon ~pick existing =
  let max_width =
    max 2 (int_of_float (budget.g_max_crash_fraction *. float_of_int horizon))
  in
  let rec try_ n =
    if n = 0 then None
    else
      let source = pick () in
      let width = 2 + Prng.int rng (max 1 (max_width - 1)) in
      let width = min width (horizon - 1) in
      let from_ = Prng.int rng (max 1 (horizon - width)) in
      let until = from_ + width in
      let overlaps =
        List.exists
          (fun w ->
            w.Fault_plan.cw_source = source && w.Fault_plan.cw_from < until
            && from_ < w.Fault_plan.cw_until)
          existing
      in
      if overlaps then try_ (n - 1)
      else Some { Fault_plan.cw_source = source; cw_from = from_; cw_until = until }
  in
  try_ 8

(* The common atom loop: draw up to [n_events] fault events, at most
   one garble and one misperception, crash windows via [pick].  The
   draw sequence on [rng] is exactly what [sample] always consumed, so
   pre-topology plans are byte-identical. *)
let sample_atoms rng ~budget ~horizon ~pick =
  let kinds =
    (if budget.g_garble then [ Garble ] else [])
    @ (if budget.g_misperceive then [ Misperceive ] else [])
    @ if budget.g_crash then [ Crash ] else []
  in
  let pick_kind () = List.nth kinds (Prng.int rng (List.length kinds)) in
  let n_events = 1 + Prng.int rng budget.g_max_events in
  let rec go i ~have_garble ~have_mp ~crashes acc =
    if i = n_events then acc
    else
      match pick_kind () with
      | Garble when not have_garble ->
        go (i + 1) ~have_garble:true ~have_mp ~crashes
          (sample_garble rng ~max_rate:budget.g_max_rate :: acc)
      | Misperceive when not have_mp ->
        go (i + 1) ~have_garble ~have_mp:true ~crashes
          (sample_misperception rng ~max_rate:budget.g_max_rate :: acc)
      | Crash -> (
        match sample_crash rng ~budget ~horizon ~pick crashes with
        | Some w ->
          go (i + 1) ~have_garble ~have_mp ~crashes:(w :: crashes)
            ({ Fault_plan.none with sp_crashes = [ w ] } :: acc)
        | None -> go (i + 1) ~have_garble ~have_mp ~crashes acc)
      (* A duplicate garble/misperception draw is skipped rather than
         redrawn, so the plan stays within the event budget. *)
      | Garble | Misperceive -> go (i + 1) ~have_garble ~have_mp ~crashes acc
  in
  let atoms = List.rev (go 0 ~have_garble:false ~have_mp:false ~crashes:[] []) in
  let atoms =
    (* Skipped draws can leave the plan empty; guarantee at least one
       event with the first enabled family. *)
    if atoms = [] then
      [
        (match List.hd kinds with
        | Garble -> sample_garble rng ~max_rate:budget.g_max_rate
        | Misperceive -> sample_misperception rng ~max_rate:budget.g_max_rate
        | Crash -> (
          match sample_crash rng ~budget ~horizon ~pick [] with
          | Some w -> { Fault_plan.none with sp_crashes = [ w ] }
          | None -> sample_misperception rng ~max_rate:budget.g_max_rate));
      ]
    else atoms
  in
  Fault_plan.merge atoms

let sample ~budget ~seed ~index ~horizon ~sources =
  check_budget budget;
  if horizon < 4 then invalid_arg "Generator.sample: horizon < 4";
  if sources < 1 then invalid_arg "Generator.sample: sources < 1";
  let rng = Prng.stream ~seed ~path:[ stream_tag; index ] in
  let spec =
    sample_atoms rng ~budget ~horizon ~pick:(fun () -> Prng.int rng sources)
  in
  match Fault_plan.validate ~horizon spec with
  | Ok () -> spec
  | Error e ->
    (* Unreachable by construction; fail loudly rather than feed the
       search an invalid plan. *)
    invalid_arg ("Generator.sample: internal: " ^ e)

(* -------------------- topology plans -------------------- *)

(* Disjoint stream family for per-segment topology plans; within one
   candidate each segment draws from its own stream (path carries the
   segment's declaration index). *)
let topo_stream_tag = 0xC4A1

let sample_topo ~budget ~seed ~index ~horizon topo =
  check_budget budget;
  if horizon < 4 then invalid_arg "Generator.sample_topo: horizon < 4";
  if topo.Topo.tp_segments = [] then
    invalid_arg "Generator.sample_topo: empty topology";
  let bridge_stations_into name =
    List.filter_map
      (fun (b : Topo.bridge) ->
        if b.Topo.br_to = name then Some b.Topo.br_station else None)
      topo.Topo.tp_bridges
  in
  let stations_of (sg : Topo.segment) =
    Array.of_list
      (List.init sg.Topo.sg_instance.Instance.num_sources Fun.id
      @ bridge_stations_into sg.Topo.sg_name)
  in
  let segment_plan rng sg =
    let stations = stations_of sg in
    sample_atoms rng ~budget ~horizon
      ~pick:(fun () -> stations.(Prng.int rng (Array.length stations)))
  in
  let plans =
    List.concat
      (List.mapi
         (fun i (sg : Topo.segment) ->
           let rng = Prng.stream ~seed ~path:[ topo_stream_tag; index; i ] in
           (* Each segment is hit with probability 1/2 — whole-federation
              storms and single-segment plans both appear. *)
           if not (Prng.bool rng) then []
           else [ (sg.Topo.sg_name, segment_plan rng sg) ])
         topo.Topo.tp_segments)
  in
  (* Guarantee every candidate exercises the failover machinery: at
     least one crash window must park a bridge station (when the
     topology has bridges at all). *)
  let has_bridge_crash =
    List.exists
      (fun (name, sp) ->
        let bs = bridge_stations_into name in
        List.exists
          (fun (w : Fault_plan.crash_window) ->
            List.mem w.Fault_plan.cw_source bs)
          sp.Fault_plan.sp_crashes)
      plans
  in
  let plans =
    if has_bridge_crash then plans
    else
      match
        List.find_opt
          (fun (sg : Topo.segment) ->
            bridge_stations_into sg.Topo.sg_name <> [])
          topo.Topo.tp_segments
      with
      | None ->
        (* Bridge-less topology: just make sure the candidate is
           non-empty. *)
        if plans <> [] then plans
        else
          let sg = List.hd topo.Topo.tp_segments in
          let rng = Prng.stream ~seed ~path:[ topo_stream_tag; index; 0xF0 ] in
          [ (sg.Topo.sg_name, segment_plan rng sg) ]
      | Some sg ->
        let name = sg.Topo.sg_name in
        let rng = Prng.stream ~seed ~path:[ topo_stream_tag; index; 0xB1 ] in
        let bs = Array.of_list (bridge_stations_into name) in
        let existing =
          match List.assoc_opt name plans with
          | Some sp -> sp.Fault_plan.sp_crashes
          | None -> []
        in
        (match
           sample_crash rng ~budget ~horizon
             ~pick:(fun () -> bs.(Prng.int rng (Array.length bs)))
             existing
         with
        | Some w ->
          let atom = { Fault_plan.none with sp_crashes = [ w ] } in
          if List.mem_assoc name plans then
            List.map
              (fun (n, p) ->
                if n = name then (n, Fault_plan.compose p atom) else (n, p))
              plans
          else plans @ [ (name, atom) ]
        | None ->
          (* Only reachable when existing windows already blanket the
             bridge station — the plan crashes it regardless. *)
          plans)
  in
  List.iter
    (fun (name, sp) ->
      match Fault_plan.validate ~horizon sp with
      | Ok () -> ()
      | Error e ->
        invalid_arg
          (Printf.sprintf "Generator.sample_topo: internal (%s): %s" name e))
    plans;
  plans

(* -------------------- admission churn -------------------- *)

(* Disjoint stream family for admission churn streams.  The id pool is
   deliberately small relative to the request count, so the stream
   naturally exercises duplicate adds, removes of unknown flows and
   modifies of evicted flows — the structured-rejection paths — as
   well as ordinary accept/evict churn. *)
let churn_stream_tag = 0xC4A2

let sample_churn ~seed ~index ~sources ~pool ~requests =
  if sources < 1 then invalid_arg "Generator.sample_churn: sources < 1";
  if pool < 1 then invalid_arg "Generator.sample_churn: pool < 1";
  if requests < 0 then invalid_arg "Generator.sample_churn: requests < 0";
  let module Request = Rtnet_admit.Request in
  let rng = Prng.stream ~seed ~path:[ churn_stream_tag; index ] in
  let bits_menu = [| 1600; 4000; 8000; 16000 |] in
  let flow id =
    let bits = bits_menu.(Prng.int rng (Array.length bits_menu)) in
    (* Per-flow load bits/window in roughly [1/128, 1/16]: a handful
       of flows is feasible, a pile-up saturates and draws rejections. *)
    let window = bits * (16 + Prng.int rng 112) in
    let deadline = window * (1 + Prng.int rng 4) in
    {
      Request.fl_id = id;
      fl_source = Prng.int rng sources;
      fl_bits = bits;
      fl_deadline = deadline;
      fl_burst = 1 + Prng.int rng 2;
      fl_window = window;
      fl_offset = Prng.int rng window;
    }
  in
  List.init requests (fun _ ->
      let id = Printf.sprintf "f%d" (Prng.int rng pool) in
      match Prng.int rng 10 with
      | 0 | 1 -> Request.Remove id
      | 2 | 3 -> Request.Modify (flow id)
      | _ -> Request.Add (flow id))
