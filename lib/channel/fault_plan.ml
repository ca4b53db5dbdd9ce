module Prng = Rtnet_util.Prng
module Json = Rtnet_util.Json

let ( let* ) = Result.bind

type garble =
  | Iid of { rate : float }
  | Gilbert_elliott of {
      p_enter : float;
      p_exit : float;
      rate_good : float;
      rate_bad : float;
    }

type crash_window = { cw_source : int; cw_from : int; cw_until : int }

type spec = {
  sp_garble : garble option;
  sp_misperception : float;
  sp_crashes : crash_window list;
  sp_garbles_at : int list;
  sp_misperceive_at : (int * int) list;
}

let none =
  {
    sp_garble = None;
    sp_misperception = 0.;
    sp_crashes = [];
    sp_garbles_at = [];
    sp_misperceive_at = [];
  }

let iid rate = { none with sp_garble = Some (Iid { rate }) }

let gilbert_elliott ~p_enter ~p_exit ~rate_good ~rate_bad =
  { none with sp_garble = Some (Gilbert_elliott { p_enter; p_exit; rate_good; rate_bad }) }

let misperceive rate = { none with sp_misperception = rate }

let crash ~source ~from_ ~until =
  { none with sp_crashes = [ { cw_source = source; cw_from = from_; cw_until = until } ] }

let garble_at times = { none with sp_garbles_at = List.sort_uniq compare times }

let misperceive_at events =
  { none with sp_misperceive_at = List.sort_uniq compare events }

let compose a b =
  {
    sp_garble = (match b.sp_garble with Some _ as g -> g | None -> a.sp_garble);
    sp_misperception =
      (if b.sp_misperception > 0. then b.sp_misperception
       else a.sp_misperception);
    sp_crashes = a.sp_crashes @ b.sp_crashes;
    sp_garbles_at = List.sort_uniq compare (a.sp_garbles_at @ b.sp_garbles_at);
    sp_misperceive_at =
      List.sort_uniq compare (a.sp_misperceive_at @ b.sp_misperceive_at);
  }

let prob name p =
  if p < 0. || p > 1. || Float.is_nan p then
    Error (Printf.sprintf "%s %g out of [0, 1]" name p)
  else Ok ()

(* Gilbert–Elliott transition probabilities additionally exclude the
   endpoints: at 0 the chain sticks silently in one state (the other
   state's rate is dead configuration), at 1 it alternates
   deterministically every slot — and a chain with both transitions
   degenerate has no stationary distribution to speak of.  Callers who
   want a frozen state should use [Iid] with that state's rate. *)
let transition name p =
  let* () = prob name p in
  if p = 0. || p = 1. then
    Error
      (Printf.sprintf
         "%s %g is degenerate — the Gilbert–Elliott chain would %s; require \
          0 < %s < 1 (use iid for a single-state process)"
         name p
         (if p = 0. then "never change state" else "alternate every slot")
         name)
  else Ok ()

let check_overlaps crashes =
  let overlap a b =
    a.cw_source = b.cw_source && a.cw_from < b.cw_until
    && b.cw_from < a.cw_until
  in
  let rec go = function
    | [] -> Ok ()
    | w :: rest -> (
      match List.find_opt (overlap w) rest with
      | Some w' ->
        Error
          (Printf.sprintf
             "crash windows [%d, %d) and [%d, %d) of source %d overlap"
             w.cw_from w.cw_until w'.cw_from w'.cw_until w.cw_source)
      | None -> go rest)
  in
  go crashes

let validate ?horizon spec =
  let* () =
    match spec.sp_garble with
    | None -> Ok ()
    | Some (Iid { rate }) -> prob "garble rate" rate
    | Some (Gilbert_elliott { p_enter; p_exit; rate_good; rate_bad }) ->
      let* () = transition "p_enter" p_enter in
      let* () = transition "p_exit" p_exit in
      let* () = prob "rate_good" rate_good in
      prob "rate_bad" rate_bad
  in
  let* () = prob "misperception rate" spec.sp_misperception in
  let* () =
    List.fold_left
      (fun acc w ->
        let* () = acc in
        if w.cw_source < 0 then
          Error (Printf.sprintf "crash window: negative source %d" w.cw_source)
        else if w.cw_from < 0 then
          Error (Printf.sprintf "crash window: negative start %d" w.cw_from)
        else if w.cw_until <= w.cw_from then
          Error
            (Printf.sprintf "crash window [%d, %d) of source %d is empty"
               w.cw_from w.cw_until w.cw_source)
        else
          match horizon with
          | Some h when w.cw_until > h ->
            Error
              (Printf.sprintf
                 "crash window [%d, %d) of source %d extends past the horizon \
                  %d — the source would never rejoin"
                 w.cw_from w.cw_until w.cw_source h)
          | Some _ | None -> Ok ())
      (Ok ()) spec.sp_crashes
  in
  let* () = check_overlaps spec.sp_crashes in
  let check_time what t =
    if t < 0 then Error (Printf.sprintf "%s: negative slot time %d" what t)
    else
      match horizon with
      | Some h when t >= h ->
        Error
          (Printf.sprintf
             "%s at %d is at or past the horizon %d — it would never fire"
             what t h)
      | Some _ | None -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc t ->
        let* () = acc in
        check_time "scheduled garble" t)
      (Ok ()) spec.sp_garbles_at
  in
  List.fold_left
    (fun acc (s, t) ->
      let* () = acc in
      if s < 0 then
        Error (Printf.sprintf "scheduled misperception: negative source %d" s)
      else check_time (Printf.sprintf "scheduled misperception of source %d" s) t)
    (Ok ()) spec.sp_misperceive_at

(* Which stations exist depends on where a plan runs, so this is not
   part of [validate]: each decoder or linter that knows the station
   set calls it. *)
let check_stations ?(extra = []) ~stations spec =
  let exists s = (s >= 0 && s < stations) || List.mem s extra in
  let known () =
    Printf.sprintf "the plan runs on stations 0..%d%s" (stations - 1)
      (match extra with
      | [] -> ""
      | l -> " and " ^ String.concat ", " (List.map string_of_int l))
  in
  match List.find_opt (fun w -> not (exists w.cw_source)) spec.sp_crashes with
  | Some w ->
    Error
      (Printf.sprintf "crash window [%d, %d) names station %d, but %s"
         w.cw_from w.cw_until w.cw_source (known ()))
  | None -> (
    match List.find_opt (fun (s, _) -> not (exists s)) spec.sp_misperceive_at with
    | Some (s, t) ->
      Error
        (Printf.sprintf "scheduled misperception at %d names station %d, but %s"
           t s (known ()))
    | None -> Ok ())

let is_empty spec =
  spec.sp_garble = None && spec.sp_misperception = 0. && spec.sp_crashes = []
  && spec.sp_garbles_at = [] && spec.sp_misperceive_at = []

let has_local_faults spec =
  spec.sp_misperception > 0. || spec.sp_crashes <> []
  || spec.sp_misperceive_at <> []

(* ---------------------------------------------------------------- *)
(* Mutation / merge helpers.  The chaos shrinker treats a plan as a   *)
(* list of independent fault events (atoms) it can drop, narrow or    *)
(* weaken; these helpers keep that decomposition canonical so         *)
(* [merge (atoms sp)] round-trips (up to crash-window order).         *)

let atoms spec =
  (match spec.sp_garble with
  | None -> []
  | Some g -> [ { none with sp_garble = Some g } ])
  @ (if spec.sp_misperception > 0. then
       [ { none with sp_misperception = spec.sp_misperception } ]
     else [])
  @ List.map (fun w -> { none with sp_crashes = [ w ] }) spec.sp_crashes
  @ List.map (fun t -> { none with sp_garbles_at = [ t ] }) spec.sp_garbles_at
  @ List.map
      (fun ev -> { none with sp_misperceive_at = [ ev ] })
      spec.sp_misperceive_at

let merge specs = List.fold_left compose none specs

let event_count spec = List.length (atoms spec)

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

let scale_severity spec factor =
  {
    spec with
    sp_garble =
      Option.map
        (function
          | Iid { rate } -> Iid { rate = clamp01 (rate *. factor) }
          | Gilbert_elliott ge ->
            Gilbert_elliott
              {
                ge with
                rate_good = clamp01 (ge.rate_good *. factor);
                rate_bad = clamp01 (ge.rate_bad *. factor);
              })
        spec.sp_garble;
    sp_misperception = clamp01 (spec.sp_misperception *. factor);
  }

let crashes_of spec ~source =
  List.filter (fun w -> w.cw_source = source) spec.sp_crashes

let max_outage spec ~source =
  List.fold_left
    (fun acc w ->
      if w.cw_source = source then max acc (w.cw_until - w.cw_from) else acc)
    0 spec.sp_crashes

let split_crash w =
  let width = w.cw_until - w.cw_from in
  if width < 2 then None
  else
    let mid = w.cw_from + (width / 2) in
    Some ({ w with cw_until = mid }, { w with cw_from = mid })

let label spec =
  let parts =
    (match spec.sp_garble with
    | None -> []
    | Some (Iid { rate }) -> [ Printf.sprintf "iid%.2f" rate ]
    | Some (Gilbert_elliott { p_enter; p_exit; _ }) ->
      [ Printf.sprintf "ge%.2f-%.2f" p_enter p_exit ])
    @ (if spec.sp_misperception > 0. then
         [ Printf.sprintf "mp%.2f" spec.sp_misperception ]
       else [])
    @ List.map
        (fun w -> Printf.sprintf "cr%d@%d-%d" w.cw_source w.cw_from w.cw_until)
        spec.sp_crashes
    @ List.map (fun t -> Printf.sprintf "g@%d" t) spec.sp_garbles_at
    @ List.map
        (fun (s, t) -> Printf.sprintf "mp%d@%d" s t)
        spec.sp_misperceive_at
  in
  match parts with [] -> "clean" | _ -> String.concat "+" parts

(* ---------------------------------------------------------------- *)
(* Canonical JSON codec (fixed key order; campaign spec hashes        *)
(* depend on the emitted bytes).                                      *)

let garble_to_json = function
  | Iid { rate } ->
    Json.Obj [ ("kind", Json.String "iid"); ("rate", Json.Float rate) ]
  | Gilbert_elliott { p_enter; p_exit; rate_good; rate_bad } ->
    Json.Obj
      [
        ("kind", Json.String "gilbert_elliott");
        ("p_enter", Json.Float p_enter);
        ("p_exit", Json.Float p_exit);
        ("rate_good", Json.Float rate_good);
        ("rate_bad", Json.Float rate_bad);
      ]

let crash_to_json w =
  Json.Obj
    [
      ("source", Json.Int w.cw_source);
      ("from", Json.Int w.cw_from);
      ("until", Json.Int w.cw_until);
    ]

(* The scheduled-fault keys are emitted only when non-empty: campaign
   spec hashes and committed repro fixtures depend on the bytes of the
   pre-existing encoding, which must stay stable for plans without
   scheduled atoms. *)
let spec_to_json spec =
  Json.Obj
    ([
       ( "garble",
         match spec.sp_garble with None -> Json.Null | Some g -> garble_to_json g
       );
       ("misperception", Json.Float spec.sp_misperception);
       ("crashes", Json.List (List.map crash_to_json spec.sp_crashes));
     ]
    @ (match spec.sp_garbles_at with
      | [] -> []
      | ts -> [ ("garbles_at", Json.List (List.map (fun t -> Json.Int t) ts)) ])
    @
    match spec.sp_misperceive_at with
    | [] -> []
    | evs ->
      [
        ( "misperceive_at",
          Json.List
            (List.map
               (fun (s, t) ->
                 Json.Obj [ ("source", Json.Int s); ("at", Json.Int t) ])
               evs) );
      ])

let float_field j key =
  let* v = Json.field key j in
  Result.map_error (fun e -> Printf.sprintf "%s: %s" key e) (Json.get_float v)

let garble_of_json j =
  let* kind = Result.bind (Json.field "kind" j) Json.get_string in
  match kind with
  | "iid" ->
    let* rate = float_field j "rate" in
    Ok (Iid { rate })
  | "gilbert_elliott" ->
    let* p_enter = float_field j "p_enter" in
    let* p_exit = float_field j "p_exit" in
    let* rate_good = float_field j "rate_good" in
    let* rate_bad = float_field j "rate_bad" in
    Ok (Gilbert_elliott { p_enter; p_exit; rate_good; rate_bad })
  | other -> Error (Printf.sprintf "unknown garble kind %S" other)

let crash_of_json j =
  let* source = Result.bind (Json.field "source" j) Json.get_int in
  let* from_ = Result.bind (Json.field "from" j) Json.get_int in
  let* until = Result.bind (Json.field "until" j) Json.get_int in
  Ok { cw_source = source; cw_from = from_; cw_until = until }

let spec_of_json j =
  let* garble = Json.field_opt "garble" garble_of_json j in
  let* misperception =
    Json.field_or "misperception" ~default:0. Json.get_float j
  in
  let* crashes =
    Json.field_or "crashes" ~default:[] (Json.list_of crash_of_json) j
  in
  let* garbles_at =
    Json.field_or "garbles_at" ~default:[] (Json.list_of Json.get_int) j
  in
  let* misperceive_at =
    Json.field_or "misperceive_at" ~default:[]
      (Json.list_of (fun item ->
           let* s = Result.bind (Json.field "source" item) Json.get_int in
           let* t = Result.bind (Json.field "at" item) Json.get_int in
           Ok (s, t)))
      j
  in
  let spec =
    {
      sp_garble = garble;
      sp_misperception = misperception;
      sp_crashes = crashes;
      sp_garbles_at = List.sort_uniq compare garbles_at;
      sp_misperceive_at = List.sort_uniq compare misperceive_at;
    }
  in
  (* Construction-time validation: a decoded plan is rejected with the
     same diagnostics [create] would raise, so malformed specs fail at
     the JSON boundary instead of mid-campaign. *)
  let* () = validate spec in
  Ok spec

(* ---------------------------------------------------------------- *)
(* Instantiated plans.  Stream paths: [0] Gilbert–Elliott state       *)
(* chain, [1] wire-garble draws, [2; source] source's misperception   *)
(* draws — so every random process is independent of the others and   *)
(* the draws of different sources never interleave.                   *)

type ge_state = Good | Bad

type t = {
  sp : spec;
  seed : int;
  state_rng : Prng.t;
  garble_rng : Prng.t;
  mutable state : ge_state;
  (* Indexed by source: its misperception stream, built on first use
     ([unset] until then; the array grows on demand).  Each stream
     depends only on (seed, path), so the order of first uses does not
     matter. *)
  mutable obs_rngs : Prng.t array;
}

(* The mark of a stream not built yet; never drawn from. *)
let unset = Prng.create 0

let create ?horizon ~seed sp =
  (match validate ?horizon sp with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fault_plan.create: " ^ e));
  {
    sp;
    seed;
    state_rng = Prng.stream ~seed ~path:[ 0 ];
    garble_rng = Prng.stream ~seed ~path:[ 1 ];
    state = Good;
    obs_rngs = [||];
  }

let spec t = t.sp

let tick t =
  match t.sp.sp_garble with
  | None | Some (Iid _) -> ()
  | Some (Gilbert_elliott { p_enter; p_exit; _ }) ->
    t.state <-
      (match t.state with
      | Good -> if Prng.below t.state_rng p_enter then Bad else Good
      | Bad -> if Prng.below t.state_rng p_exit then Good else Bad)

(* The queries below run for every station in every slot: they scan
   the spec's lists with top-level loops and draw through
   [Prng.below], so they build no closure and allocate nothing. *)
let rec mem_time now = function
  | [] -> false
  | t :: rest -> t = now || mem_time now rest

let rec scheduled source now = function
  | [] -> false
  | (s, at) :: rest -> (s = source && at = now) || scheduled source now rest

let rec down source now = function
  | [] -> false
  | w :: rest ->
    (w.cw_source = source && now >= w.cw_from && now < w.cw_until)
    || down source now rest

(* The random draw happens iff the random process is configured — never
   skipped because a scheduled atom already fires — so adding scheduled
   atoms to a plan leaves the random streams' positions (and therefore
   every existing fixture) untouched. *)
let wire_garbles t ~now =
  let drawn =
    match t.sp.sp_garble with
    | None -> false
    | Some (Iid { rate }) -> Prng.below t.garble_rng rate
    | Some (Gilbert_elliott { rate_good; rate_bad; _ }) ->
      Prng.below t.garble_rng
        (match t.state with Good -> rate_good | Bad -> rate_bad)
  in
  drawn || mem_time now t.sp.sp_garbles_at

let obs_rng t source =
  if source < 0 then invalid_arg "Fault_plan.misperceives: negative source";
  let n = Array.length t.obs_rngs in
  if source >= n then begin
    let grown = Array.make (max (source + 1) (2 * n)) unset in
    Array.blit t.obs_rngs 0 grown 0 n;
    t.obs_rngs <- grown
  end;
  let rng = t.obs_rngs.(source) in
  if rng != unset then rng
  else begin
    let rng = Prng.stream ~seed:t.seed ~path:[ 2; source ] in
    t.obs_rngs.(source) <- rng;
    rng
  end

let misperceives t ~source ~now =
  let drawn =
    t.sp.sp_misperception > 0.
    && Prng.below (obs_rng t source) t.sp.sp_misperception
  in
  drawn || scheduled source now t.sp.sp_misperceive_at

let alive t ~source ~now = not (down source now t.sp.sp_crashes)
