(* Fault-plan subsystem: spec validation and determinism, and CSMA/DDCR
   under every builtin plan — mutual exclusion among live synced
   sources always holds, and a desynchronized station re-enters within
   one tree epoch of the fault clearing. *)

module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Scenarios = Rtnet_workload.Scenarios
module Instance = Rtnet_workload.Instance
module Run = Rtnet_stats.Run
module Run_json = Rtnet_stats.Run_json
module Json = Rtnet_util.Json
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Ddcr_trace = Rtnet_core.Ddcr_trace
module Trace_check = Rtnet_analysis.Trace_check
module Diagnostic = Rtnet_analysis.Diagnostic

let ms = 1_000_000

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* -------------------------------------------------------------- specs *)

let test_validate_rejects () =
  let bad spec msg =
    match Fault_plan.validate spec with
    | Error _ -> ()
    | Ok () -> Alcotest.fail ("accepted " ^ msg)
  in
  bad (Fault_plan.iid 1.5) "iid rate above 1";
  bad (Fault_plan.iid (-0.1)) "negative iid rate";
  bad (Fault_plan.iid Float.nan) "NaN iid rate";
  bad (Fault_plan.misperceive 2.0) "misperception above 1";
  bad
    (Fault_plan.gilbert_elliott ~p_enter:1.5 ~p_exit:0.1 ~rate_good:0.0
       ~rate_bad:0.5)
    "p_enter above 1";
  bad (Fault_plan.crash ~source:0 ~from_:100 ~until:100) "empty crash window";
  bad (Fault_plan.crash ~source:(-1) ~from_:0 ~until:10) "negative source";
  (match
     Fault_plan.validate ~horizon:1000
       (Fault_plan.crash ~source:0 ~from_:500 ~until:2000)
   with
  | Error e ->
    Alcotest.(check bool) "mentions rejoin" true (contains ~sub:"never rejoin" e)
  | Ok () -> Alcotest.fail "accepted window past the horizon");
  Alcotest.check_raises "create validates"
    (Invalid_argument "Fault_plan.create: garble rate 1.5 out of [0, 1]")
    (fun () -> ignore (Fault_plan.create ~seed:1 (Fault_plan.iid 1.5)))

let test_validate_rejects_degenerate_ge () =
  (* Transition probabilities of exactly 0 or 1 make the Gilbert–
     Elliott chain degenerate — stuck in one state, or alternating
     deterministically every slot — which silently turns a "bursty
     noise" experiment into something else entirely.  Construction
     must reject all four endpoints with a diagnostic that says why. *)
  let ge ~p_enter ~p_exit =
    Fault_plan.gilbert_elliott ~p_enter ~p_exit ~rate_good:0.01 ~rate_bad:0.8
  in
  let degenerate what spec =
    match Fault_plan.validate spec with
    | Error e ->
      Alcotest.(check bool)
        (what ^ " diagnosed as degenerate")
        true (contains ~sub:"degenerate" e)
    | Ok () -> Alcotest.fail ("accepted " ^ what)
  in
  degenerate "p_enter = 0" (ge ~p_enter:0.0 ~p_exit:0.2);
  degenerate "p_enter = 1" (ge ~p_enter:1.0 ~p_exit:0.2);
  degenerate "p_exit = 0" (ge ~p_enter:0.02 ~p_exit:0.0);
  degenerate "p_exit = 1" (ge ~p_enter:0.02 ~p_exit:1.0);
  (* The diagnostic points at the iid escape hatch for the
     single-state process the caller may actually have wanted. *)
  (match Fault_plan.validate (ge ~p_enter:0.0 ~p_exit:0.2) with
  | Error e ->
    Alcotest.(check bool) "suggests iid" true (contains ~sub:"iid" e)
  | Ok () -> Alcotest.fail "accepted p_enter = 0");
  (* Interior probabilities stay accepted, including extremes close
     to the endpoints. *)
  match Fault_plan.validate (ge ~p_enter:0.001 ~p_exit:0.999) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("rejected interior probabilities: " ^ e)

let test_validate_rejects_overlapping_crashes () =
  let w source from_ until =
    Fault_plan.crash ~source ~from_ ~until
  in
  let overlapping =
    Fault_plan.compose (w 1 100 300) (w 1 200 400)
  in
  (match Fault_plan.validate overlapping with
  | Error e ->
    Alcotest.(check bool) "names the windows" true (contains ~sub:"overlap" e)
  | Ok () -> Alcotest.fail "accepted overlapping windows of one source");
  (* Same intervals on different sources are independent outages. *)
  (match Fault_plan.validate (Fault_plan.compose (w 1 100 300) (w 2 200 400)) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("rejected distinct sources: " ^ e));
  (* Touching windows ([a, b) then [b, c)) do not overlap. *)
  match Fault_plan.validate (Fault_plan.compose (w 1 100 200) (w 1 200 300)) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("rejected adjacent windows: " ^ e)

let test_json_codec_error_paths () =
  (* spec_of_json validates what it decodes: a well-formed JSON
     document carrying out-of-range or inconsistent parameters must
     come back as a construction diagnostic, never as an Ok spec that
     explodes later inside a worker. *)
  let decode s = Result.bind (Json.parse s) Fault_plan.spec_of_json in
  let rejected what ~diag s =
    match decode s with
    | Error e ->
      Alcotest.(check bool)
        (what ^ ": diagnostic mentions " ^ diag)
        true (contains ~sub:diag e)
    | Ok _ -> Alcotest.fail ("decoded " ^ what)
  in
  rejected "unknown garble kind" ~diag:"unknown garble kind"
    {|{"garble":{"kind":"solar-flare","rate":0.1}}|};
  rejected "negative crash window" ~diag:"empty"
    {|{"crashes":[{"source":1,"from":500,"until":400}]}|};
  rejected "overlapping crash windows" ~diag:"overlap"
    {|{"crashes":[{"source":1,"from":100,"until":300},
                  {"source":1,"from":200,"until":400}]}|};
  rejected "degenerate GE parameters" ~diag:"degenerate"
    {|{"garble":{"kind":"gilbert_elliott","p_enter":0.0,"p_exit":0.2,
                 "rate_good":0.01,"rate_bad":0.8}}|};
  rejected "garble rate above 1" ~diag:"out of"
    {|{"garble":{"kind":"iid","rate":1.5}}|};
  (* And a valid document still decodes. *)
  match
    decode
      {|{"garble":{"kind":"iid","rate":0.1},"misperception":0.05,
         "crashes":[{"source":0,"from":10,"until":20}]}|}
  with
  | Ok spec ->
    Alcotest.(check string) "decoded label" "iid0.10+mp0.05+cr0@10-20"
      (Fault_plan.label spec)
  | Error e -> Alcotest.fail e

(* ------------------------------------------- mutation / merge helpers *)

let test_atoms_merge_roundtrip () =
  let spec =
    Fault_plan.compose
      (Fault_plan.compose (Fault_plan.iid 0.1) (Fault_plan.misperceive 0.05))
      (Fault_plan.compose
         (Fault_plan.crash ~source:0 ~from_:10 ~until:20)
         (Fault_plan.crash ~source:1 ~from_:30 ~until:40))
  in
  let atoms = Fault_plan.atoms spec in
  Alcotest.(check int) "one atom per event" 4 (List.length atoms);
  Alcotest.(check int) "event_count agrees" 4 (Fault_plan.event_count spec);
  Alcotest.(check string) "merge inverts atoms"
    (Json.to_string (Fault_plan.spec_to_json spec))
    (Json.to_string (Fault_plan.spec_to_json (Fault_plan.merge atoms)));
  Alcotest.(check int) "clean plan has no events" 0
    (Fault_plan.event_count Fault_plan.none)

let test_scale_severity () =
  let spec =
    Fault_plan.compose
      (Fault_plan.compose
         (Fault_plan.gilbert_elliott ~p_enter:0.02 ~p_exit:0.2 ~rate_good:0.2
            ~rate_bad:0.8)
         (Fault_plan.misperceive 0.1))
      (Fault_plan.crash ~source:0 ~from_:10 ~until:20)
  in
  let half = Fault_plan.scale_severity spec 0.5 in
  (match half.Fault_plan.sp_garble with
  | Some (Fault_plan.Gilbert_elliott { p_enter; p_exit; rate_good; rate_bad })
    ->
    (* Rates scale; the burst structure (transition probabilities) is
       a separate shrinking axis and must not drift. *)
    Alcotest.(check (float 1e-9)) "rate_good halved" 0.1 rate_good;
    Alcotest.(check (float 1e-9)) "rate_bad halved" 0.4 rate_bad;
    Alcotest.(check (float 1e-9)) "p_enter untouched" 0.02 p_enter;
    Alcotest.(check (float 1e-9)) "p_exit untouched" 0.2 p_exit
  | _ -> Alcotest.fail "garble shape changed");
  Alcotest.(check (float 1e-9)) "misperception halved" 0.05
    half.Fault_plan.sp_misperception;
  Alcotest.(check bool) "crash windows untouched" true
    (half.Fault_plan.sp_crashes = spec.Fault_plan.sp_crashes);
  (* Scaling never leaves the valid range. *)
  match Fault_plan.validate (Fault_plan.scale_severity spec 0.0) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("zero-scaled plan invalid: " ^ e)

let test_split_crash () =
  let w = { Fault_plan.cw_source = 2; cw_from = 100; cw_until = 200 } in
  (match Fault_plan.split_crash w with
  | Some (l, r) ->
    Alcotest.(check int) "left starts at from" 100 l.Fault_plan.cw_from;
    Alcotest.(check int) "right ends at until" 200 r.Fault_plan.cw_until;
    Alcotest.(check int) "halves meet" l.Fault_plan.cw_until
      r.Fault_plan.cw_from;
    Alcotest.(check bool) "both halves non-empty" true
      (l.Fault_plan.cw_from < l.Fault_plan.cw_until
      && r.Fault_plan.cw_from < r.Fault_plan.cw_until)
  | None -> Alcotest.fail "refused to split a 100-bit window");
  match
    Fault_plan.split_crash { Fault_plan.cw_source = 0; cw_from = 5; cw_until = 6 }
  with
  | None -> ()
  | Some _ -> Alcotest.fail "split a 1-bit window"

let test_validate_accepts_builtins () =
  let ok spec =
    match Fault_plan.validate ~horizon:(40 * ms) spec with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("rejected " ^ Fault_plan.label spec ^ ": " ^ e)
  in
  ok Fault_plan.none;
  ok (Fault_plan.iid 0.15);
  ok
    (Fault_plan.gilbert_elliott ~p_enter:0.02 ~p_exit:0.2 ~rate_good:0.01
       ~rate_bad:0.8);
  ok (Fault_plan.misperceive 0.05);
  ok (Fault_plan.crash ~source:1 ~from_:(5 * ms) ~until:(12 * ms))

let test_json_roundtrip () =
  let spec =
    Fault_plan.compose
      (Fault_plan.compose
         (Fault_plan.gilbert_elliott ~p_enter:0.02 ~p_exit:0.2 ~rate_good:0.01
            ~rate_bad:0.8)
         (Fault_plan.misperceive 0.03))
      (Fault_plan.crash ~source:2 ~from_:(3 * ms) ~until:(7 * ms))
  in
  match Fault_plan.spec_of_json (Fault_plan.spec_to_json spec) with
  | Ok spec' ->
    Alcotest.(check string) "roundtrips" (Fault_plan.label spec)
      (Fault_plan.label spec');
    Alcotest.(check string) "json stable"
      (Json.to_string (Fault_plan.spec_to_json spec))
      (Json.to_string (Fault_plan.spec_to_json spec'))
  | Error e -> Alcotest.fail e

let test_labels () =
  Alcotest.(check string) "clean" "clean" (Fault_plan.label Fault_plan.none);
  Alcotest.(check string) "iid" "iid0.15" (Fault_plan.label (Fault_plan.iid 0.15));
  Alcotest.(check string) "composed" "mp0.05+cr1@100-200"
    (Fault_plan.label
       (Fault_plan.compose
          (Fault_plan.misperceive 0.05)
          (Fault_plan.crash ~source:1 ~from_:100 ~until:200)))

let test_compose_overlays () =
  let a = Fault_plan.compose (Fault_plan.iid 0.1) (Fault_plan.misperceive 0.2) in
  let b = Fault_plan.compose a (Fault_plan.crash ~source:0 ~from_:0 ~until:10) in
  Alcotest.(check bool) "keeps garble" true (b.Fault_plan.sp_garble <> None);
  Alcotest.(check (float 1e-9)) "keeps misperception" 0.2
    b.Fault_plan.sp_misperception;
  Alcotest.(check int) "keeps crashes" 1
    (List.length b.Fault_plan.sp_crashes);
  Alcotest.(check bool) "local faults" true (Fault_plan.has_local_faults b);
  Alcotest.(check bool) "iid alone is global" false
    (Fault_plan.has_local_faults (Fault_plan.iid 0.3))

let test_draws_deterministic () =
  let spec =
    Fault_plan.compose
      (Fault_plan.gilbert_elliott ~p_enter:0.1 ~p_exit:0.3 ~rate_good:0.05
         ~rate_bad:0.9)
      (Fault_plan.misperceive 0.1)
  in
  let sample () =
    let p = Fault_plan.create ~seed:42 spec in
    List.init 200 (fun i ->
        Fault_plan.tick p;
        (Fault_plan.wire_garbles p ~now:i, Fault_plan.misperceives p ~source:1 ~now:i))
  in
  Alcotest.(check bool) "same seed, same draws" true (sample () = sample ());
  let burst = sample () in
  Alcotest.(check bool) "bursts garble something" true
    (List.exists fst burst);
  Alcotest.(check bool) "good states stay mostly clean" true
    (List.exists (fun (g, _) -> not g) burst)

(* Scheduled atoms (the model checker's witness format): deterministic
   garbles/misperceptions at pinned slot times, firing exactly there,
   consuming zero PRNG draws, and surviving the JSON codec. *)
let test_scheduled_atoms () =
  let spec =
    Fault_plan.merge
      [
        Fault_plan.garble_at [ 1024; 512; 512 ];
        Fault_plan.misperceive_at [ (1, 2048); (0, 512) ];
      ]
  in
  Alcotest.(check (list int)) "garble times sorted and deduped" [ 512; 1024 ]
    spec.Fault_plan.sp_garbles_at;
  Alcotest.(check string) "label names the scheduled atoms"
    "g@512+g@1024+mp0@512+mp1@2048" (Fault_plan.label spec);
  Alcotest.(check bool) "scheduled misperception is a local fault" true
    (Fault_plan.has_local_faults spec);
  (match Fault_plan.spec_of_json (Fault_plan.spec_to_json spec) with
  | Error e -> Alcotest.fail e
  | Ok spec' ->
    Alcotest.(check string) "codec round trip"
      (Json.to_string (Fault_plan.spec_to_json spec))
      (Json.to_string (Fault_plan.spec_to_json spec')));
  (* The fault seed is irrelevant for a scheduled-only plan — exactly
     the property model-exported artifacts rely on. *)
  let fire seed =
    let p = Fault_plan.create ~seed spec in
    List.map
      (fun now ->
        Fault_plan.tick p;
        ( Fault_plan.wire_garbles p ~now,
          Fault_plan.misperceives p ~source:0 ~now,
          Fault_plan.misperceives p ~source:1 ~now ))
      [ 0; 512; 1024; 2048 ]
  in
  let expected =
    [
      (false, false, false);
      (true, true, false);
      (true, false, false);
      (false, false, true);
    ]
  in
  Alcotest.(check bool) "atoms fire exactly at their slots" true
    (fire 42 = expected);
  Alcotest.(check bool) "fault seed is irrelevant" true (fire 0 = fire 99);
  (* validate rejects atoms that would never fire. *)
  (match Fault_plan.validate ~horizon:1000 (Fault_plan.garble_at [ 1024 ]) with
  | Error e -> Alcotest.(check bool) "past-horizon garble rejected" true
      (contains ~sub:"never fire" e)
  | Ok () -> Alcotest.fail "accepted a garble past the horizon");
  match Fault_plan.validate (Fault_plan.misperceive_at [ (0, -1) ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted a negative scheduled time"

let test_alive_windows () =
  let p =
    Fault_plan.create ~seed:1
      (Fault_plan.crash ~source:1 ~from_:100 ~until:200)
  in
  Alcotest.(check bool) "before" true (Fault_plan.alive p ~source:1 ~now:99);
  Alcotest.(check bool) "inside" false (Fault_plan.alive p ~source:1 ~now:100);
  Alcotest.(check bool) "last slot" false
    (Fault_plan.alive p ~source:1 ~now:199);
  Alcotest.(check bool) "after" true (Fault_plan.alive p ~source:1 ~now:200);
  Alcotest.(check bool) "other source" true
    (Fault_plan.alive p ~source:0 ~now:150)

(* A plan naming a station that does not exist is rejected wherever
   the station set is known, whichever atom names it: the plain chaos
   decoder (crash window on station 99 of a 4-station bus), campaign
   spec validation (crash window on station 99 of a 3-station
   scenario), the federated decoder and a topology segment (scheduled
   misperception of station 99), instead of running as if the atom
   were absent. *)
let test_missing_station_rejected () =
  let module Repro = Rtnet_chaos.Repro in
  let module Plain = Rtnet_chaos.Plain in
  let module Spec = Rtnet_campaign.Spec in
  let module Topo = Rtnet_topology.Topo in
  let rejected label = function
    | Error e ->
      Alcotest.(check bool) (label ^ " names station 99") true
        (contains ~sub:"station 99" e)
    | Ok _ -> Alcotest.fail (label ^ " accepted a plan naming station 99")
  in
  rejected "the chaos decoder"
    (Repro.load (module Plain) ~path:"fixtures/chaos_repro_ghost_station.json");
  rejected "campaign validation"
    (Spec.load_file "fixtures/fault_plan_ghost_station.json");
  (* The federated decoder: a committed artifact with its crash window
     moved from bridge station 5 to station 99. *)
  rejected "the federated decoder"
    (Repro.load (module Rtnet_chaos.Federated)
       ~path:"fixtures/topo_chaos_repro_ghost_station.json");
  let tree =
    Topo.tree ~name:"t3" ~segments:3 ~fanout:2 ~sources:4 ~load:0.1
      ~deadline_windows:16.0 ()
  in
  match
    Topo.with_faults tree
      [ ("seg0", Fault_plan.misperceive_at [ (99, ms) ]) ]
  with
  | Error e -> Alcotest.fail e
  | Ok t ->
    rejected "a topology segment"
      (match Topo.fault_errors t with [] -> Ok () | e :: _ -> Error e)

let test_check_stations () =
  let check label want spec ?extra stations =
    Alcotest.(check bool) label want
      (Result.is_ok (Fault_plan.check_stations ?extra ~stations spec))
  in
  let crash s = Fault_plan.crash ~source:s ~from_:100 ~until:200 in
  let scheduled s = Fault_plan.misperceive_at [ (s, 100) ] in
  check "crash on the last station" true (crash 3) 4;
  check "crash past the last station" false (crash 4) 4;
  check "scheduled misperception on the last station" true (scheduled 3) 4;
  check "scheduled misperception past the last station" false (scheduled 4) 4;
  check "an extra station" true (crash 7) ~extra:[ 7 ] 4;
  check "not an extra station" false (scheduled 6) ~extra:[ 7 ] 4;
  check "random processes name no station" true
    (Fault_plan.merge
       [ Fault_plan.misperceive 0.1; Fault_plan.iid 0.1; Fault_plan.garble_at [ 5 ] ])
    1;
  let errors stations =
    List.filter
      (fun d -> d.Diagnostic.severity = Diagnostic.Error)
      (Rtnet_analysis.Config_lint.check_fault ?stations (crash 4))
  in
  Alcotest.(check int) "the lint without stations" 0 (List.length (errors None));
  Alcotest.(check int) "the lint on 4 stations" 1
    (List.length (errors (Some 4)))

(* ------------------------------------------- queries vs a reference *)

(* The sampler as it was before its queries stopped allocating: a hash
   table of per-source streams, closures over the spec's lists, and
   every Bernoulli draw through [Prng.float g 1.0 < p].  The property
   below holds the sampler to it, answer for answer. *)
module Reference = struct
  module Prng = Rtnet_util.Prng

  type ge_state = Good | Bad

  type t = {
    sp : Fault_plan.spec;
    seed : int;
    state_rng : Prng.t;
    garble_rng : Prng.t;
    mutable state : ge_state;
    obs_rngs : (int, Prng.t) Hashtbl.t;
  }

  let create ~seed sp =
    {
      sp;
      seed;
      state_rng = Prng.stream ~seed ~path:[ 0 ];
      garble_rng = Prng.stream ~seed ~path:[ 1 ];
      state = Good;
      obs_rngs = Hashtbl.create 8;
    }

  let tick t =
    match t.sp.Fault_plan.sp_garble with
    | None | Some (Fault_plan.Iid _) -> ()
    | Some (Fault_plan.Gilbert_elliott { p_enter; p_exit; _ }) ->
      let u = Prng.float t.state_rng 1.0 in
      t.state <-
        (match t.state with
        | Good -> if u < p_enter then Bad else Good
        | Bad -> if u < p_exit then Good else Bad)

  let wire_garbles t ~now =
    let drawn =
      match t.sp.Fault_plan.sp_garble with
      | None -> false
      | Some (Fault_plan.Iid { rate }) -> Prng.float t.garble_rng 1.0 < rate
      | Some (Fault_plan.Gilbert_elliott { rate_good; rate_bad; _ }) ->
        let rate = match t.state with Good -> rate_good | Bad -> rate_bad in
        Prng.float t.garble_rng 1.0 < rate
    in
    drawn || List.mem now t.sp.Fault_plan.sp_garbles_at

  let obs_rng t source =
    match Hashtbl.find_opt t.obs_rngs source with
    | Some rng -> rng
    | None ->
      let rng = Prng.stream ~seed:t.seed ~path:[ 2; source ] in
      Hashtbl.add t.obs_rngs source rng;
      rng

  let misperceives t ~source ~now =
    let rate = t.sp.Fault_plan.sp_misperception in
    let drawn = rate > 0. && Prng.float (obs_rng t source) 1.0 < rate in
    drawn
    || List.exists
         (fun (s, at) -> s = source && at = now)
         t.sp.Fault_plan.sp_misperceive_at

  let alive t ~source ~now =
    not
      (List.exists
         (fun w ->
           w.Fault_plan.cw_source = source
           && now >= w.Fault_plan.cw_from
           && now < w.Fault_plan.cw_until)
         t.sp.Fault_plan.sp_crashes)
end

(* A random valid plan over 1–8 stations — either garble kind,
   misperception, non-overlapping crash windows, scheduled garbles and
   misperceptions — and a slot schedule: slot k starts at 10k, ticks
   the burst chain, draws the wire if it carries a lone frame, and
   asks some stations, in random order, whether they are alive and,
   if so, whether they misperceive. *)
let gen_case =
  let open QCheck.Gen in
  let* stations = int_range 1 8 in
  let* slots = int_range 1 80 in
  let time = map (fun k -> 10 * k) (int_range 0 (slots - 1)) in
  let rate = float_range 0. 1. in
  let* sp_garble =
    frequency
      [
        (1, return None);
        (2, map (fun rate -> Some (Fault_plan.Iid { rate })) rate);
        ( 2,
          map
            (fun ((p_enter, p_exit), (rate_good, rate_bad)) ->
              Some
                (Fault_plan.Gilbert_elliott { p_enter; p_exit; rate_good; rate_bad }))
            (pair
               (pair (float_range 0.05 0.95) (float_range 0.05 0.95))
               (pair rate rate)) );
      ]
  in
  let* sp_misperception = frequency [ (1, return 0.); (3, rate) ] in
  (* Consecutive pairs of distinct sorted times never overlap. *)
  let rec windows s = function
    | a :: b :: rest ->
      { Fault_plan.cw_source = s; cw_from = a; cw_until = b } :: windows s rest
    | [ _ ] | [] -> []
  in
  let* crashes =
    flatten_l
      (List.init stations (fun s ->
           map
             (fun ts -> windows s (List.sort_uniq compare ts))
             (list_size (int_range 0 4) (int_range 0 (10 * slots)))))
  in
  let* garbles_at = list_size (int_range 0 6) time in
  let* misperceive_at =
    list_size (int_range 0 10) (pair (int_range 0 (stations - 1)) time)
  in
  let spec =
    {
      Fault_plan.sp_garble;
      sp_misperception;
      sp_crashes = List.concat crashes;
      sp_garbles_at = List.sort_uniq compare garbles_at;
      sp_misperceive_at = List.sort_uniq compare misperceive_at;
    }
  in
  let* seed = int in
  let* schedule =
    flatten_l
      (List.init slots (fun k ->
           let* lone = bool in
           let* order = shuffle_l (List.init stations Fun.id) in
           let* asked = frequency [ (3, return stations); (1, int_range 0 stations) ] in
           return (10 * k, lone, List.filteri (fun i _ -> i < asked) order)))
  in
  return (seed, spec, schedule)

let print_case (seed, spec, schedule) =
  Printf.sprintf "seed %d, plan %s, %d slots" seed
    (Json.to_string (Fault_plan.spec_to_json spec))
    (List.length schedule)

(* Every answer, in query order. *)
let answers ~tick ~wire_garbles ~alive ~misperceives p schedule =
  List.concat_map
    (fun (now, lone, asked) ->
      tick p;
      (if lone then [ wire_garbles p ~now ] else [])
      @ List.concat_map
          (fun source ->
            if alive p ~source ~now then [ true; misperceives p ~source ~now ]
            else [ false ])
          asked)
    schedule

let prop_queries_match_reference =
  QCheck.Test.make ~name:"fault-plan queries answer as the reference does"
    ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun (seed, spec, schedule) ->
      (match Fault_plan.validate spec with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "generated an invalid plan: %s" e);
      answers ~tick:Fault_plan.tick ~wire_garbles:Fault_plan.wire_garbles
        ~alive:Fault_plan.alive ~misperceives:Fault_plan.misperceives
        (Fault_plan.create ~seed spec) schedule
      = answers ~tick:Reference.tick ~wire_garbles:Reference.wire_garbles
          ~alive:Reference.alive ~misperceives:Reference.misperceives
          (Reference.create ~seed spec) schedule)

(* ------------------------------------------- DDCR under fault plans *)

let run_under_plan ?(stations = 4) ?(seed = 5) ?(horizon = 40 * ms) spec =
  let inst = Scenarios.videoconference ~stations in
  let params = Ddcr_params.default inst in
  let trace = Instance.trace inst ~seed ~horizon in
  let sink, finish = Ddcr_trace.collector () in
  let plan = Fault_plan.create ~horizon ~seed:7 spec in
  let outcome = Ddcr.run_trace ~sink ~plan params inst trace ~horizon in
  (outcome, finish (), trace)

let errors_of_kind diags rule =
  List.filter
    (fun d ->
      d.Diagnostic.severity = Diagnostic.Error && d.Diagnostic.rule_id = rule)
    diags

let builtin_plans =
  [
    Fault_plan.iid 0.15;
    Fault_plan.gilbert_elliott ~p_enter:0.02 ~p_exit:0.2 ~rate_good:0.01
      ~rate_bad:0.8;
    Fault_plan.misperceive 0.05;
    Fault_plan.crash ~source:1 ~from_:(5 * ms) ~until:(12 * ms);
    Fault_plan.compose
      (Fault_plan.compose (Fault_plan.iid 0.05) (Fault_plan.misperceive 0.02))
      (Fault_plan.crash ~source:2 ~from_:(8 * ms) ~until:(14 * ms));
  ]

let test_safety_under_every_builtin_plan () =
  List.iter
    (fun spec ->
      let outcome, events, trace = run_under_plan spec in
      (* The harness already failed the run if two frames overlapped;
         the trace checker re-proves mutual exclusion independently. *)
      let diags = Trace_check.check_run ~workload:trace ~outcome events in
      let label = Fault_plan.label spec in
      Alcotest.(check int)
        (label ^ ": no safety violations")
        0
        (List.length (errors_of_kind diags "TRC-SAFETY"));
      Alcotest.(check int)
        (label ^ ": ordered")
        0
        (List.length (errors_of_kind diags "TRC-ORDER"));
      Alcotest.(check int)
        (label ^ ": accounting reconciles")
        0
        (List.length (errors_of_kind diags "TRC-ACCOUNT"));
      match outcome.Run.faults with
      | None -> Alcotest.fail (label ^ ": expected fault statistics")
      | Some fs ->
        Alcotest.(check int)
          (label ^ ": one entry per source")
          4
          (List.length fs.Run.f_per_source))
    builtin_plans

let find_time pred events =
  List.find_map (fun e -> pred e) events

let test_crash_recovers_within_one_tree_epoch () =
  let spec = Fault_plan.crash ~source:1 ~from_:(5 * ms) ~until:(12 * ms) in
  let outcome, events, _ = run_under_plan spec in
  let rejoin =
    find_time
      (function
        | Ddcr_trace.Rejoin { time; source = 1 } -> Some time | _ -> None)
      events
  in
  let rejoin = match rejoin with Some t -> t | None -> Alcotest.fail "no rejoin" in
  let resync =
    find_time
      (function
        | Ddcr_trace.Resync { time; source = 1 } when time >= rejoin ->
          Some time
        | _ -> None)
      events
  in
  let resync = match resync with Some t -> t | None -> Alcotest.fail "no resync" in
  (* Within one tree epoch: at most one time tree search may complete
     between the rejoin and the recovery (the one in flight when the
     station came back). *)
  let tts_ends_between =
    List.length
      (List.filter
         (function
           | Ddcr_trace.Tts_end { time; _ } -> time > rejoin && time < resync
           | _ -> false)
         events)
  in
  Alcotest.(check bool) "within one tree epoch" true (tts_ends_between <= 1);
  let summary = Ddcr_trace.summarize events in
  Alcotest.(check int) "one crash" 1 summary.Ddcr_trace.crashes;
  Alcotest.(check int) "one rejoin" 1 summary.Ddcr_trace.rejoins;
  Alcotest.(check int) "one resync" 1 summary.Ddcr_trace.resyncs;
  (match outcome.Run.faults with
  | Some fs ->
    let sf = List.nth fs.Run.f_per_source 1 in
    Alcotest.(check bool) "crashed slots counted" true
      (sf.Run.sf_crashed_slots > 0);
    Alcotest.(check int) "resync counted" 1 sf.Run.sf_resyncs;
    Alcotest.(check bool) "epochs recorded" true (fs.Run.f_epochs <> [])
  | None -> Alcotest.fail "expected fault statistics");
  let m = Run.metrics outcome in
  Alcotest.(check int) "recovery metric" 1 m.Run.recoveries

let test_misperception_desync_and_recovery () =
  let spec = Fault_plan.misperceive 0.05 in
  let outcome, events, _ = run_under_plan ~horizon:(40 * ms) spec in
  let summary = Ddcr_trace.summarize events in
  Alcotest.(check bool) "misperception caused divergence" true
    (summary.Ddcr_trace.desyncs > 0);
  Alcotest.(check int) "every divergence recovered"
    summary.Ddcr_trace.desyncs summary.Ddcr_trace.resyncs;
  let m = Run.metrics outcome in
  Alcotest.(check bool) "misperceived slots counted" true (m.Run.misperceived > 0);
  Alcotest.(check bool) "desync slots counted" true (m.Run.desync_slots > 0);
  (* Desync events pair with a later Resync of the same source. *)
  List.iter
    (function
      | Ddcr_trace.Desync { time; source } ->
        let recovered =
          List.exists
            (function
              | Ddcr_trace.Resync { time = t; source = s } ->
                s = source && t >= time
              | _ -> false)
            events
        in
        Alcotest.(check bool)
          (Printf.sprintf "source %d desynced at %d recovers" source time)
          true recovered
      | _ -> ())
    events

let test_all_stations_crash_cold_restart () =
  let every_source_down =
    List.fold_left
      (fun acc s ->
        Fault_plan.compose acc
          (Fault_plan.crash ~source:s ~from_:(2 * ms) ~until:(4 * ms)))
      Fault_plan.none [ 0; 1; 2 ]
  in
  let inst = Scenarios.trading ~gateways:3 in
  let params = Ddcr_params.default inst in
  let horizon = 10 * ms in
  let trace = Instance.trace inst ~seed:3 ~horizon in
  let sink, finish = Ddcr_trace.collector () in
  let plan = Fault_plan.create ~horizon ~seed:11 every_source_down in
  let outcome = Ddcr.run_trace ~sink ~plan params inst trace ~horizon in
  let summary = Ddcr_trace.summarize (finish ()) in
  Alcotest.(check int) "all crashed" 3 summary.Ddcr_trace.crashes;
  Alcotest.(check int) "all rejoined" 3 summary.Ddcr_trace.rejoins;
  Alcotest.(check int) "all resynced (one cold restart + two copies)" 3
    summary.Ddcr_trace.resyncs;
  Alcotest.(check bool) "traffic resumed after the blackout" true
    (List.exists
       (fun c -> c.Run.c_start > 4 * ms)
       outcome.Run.completions)

let test_run_json_deterministic_under_plan () =
  let spec =
    Fault_plan.compose (Fault_plan.iid 0.1) (Fault_plan.misperceive 0.03)
  in
  let go () =
    let outcome, _, _ = run_under_plan ~horizon:(20 * ms) spec in
    Json.to_string (Run_json.outcome_to_json outcome)
  in
  Alcotest.(check string) "byte-identical replay" (go ()) (go ())

let test_clean_plan_matches_planless_run () =
  (* The empty plan must not perturb the simulation: same completions
     as a run with no plan at all (only the [faults] block differs). *)
  let inst = Scenarios.videoconference ~stations:4 in
  let params = Ddcr_params.default inst in
  let horizon = 20 * ms in
  let trace = Instance.trace inst ~seed:9 ~horizon in
  let bare = Ddcr.run_trace params inst trace ~horizon in
  let plan = Fault_plan.create ~horizon ~seed:1 Fault_plan.none in
  let clean = Ddcr.run_trace ~plan params inst trace ~horizon in
  Alcotest.(check int) "same completions"
    (List.length bare.Run.completions)
    (List.length clean.Run.completions);
  Alcotest.(check bool) "planless run reports no fault stats" true
    (bare.Run.faults = None);
  (match clean.Run.faults with
  | Some fs ->
    Alcotest.(check (list (pair int int))) "no fault epochs" [] fs.Run.f_epochs
  | None -> Alcotest.fail "plan run must report fault stats");
  Alcotest.(check string) "identical wire schedule"
    (Json.to_string (Run_json.outcome_to_json { bare with Run.faults = None }))
    (Json.to_string (Run_json.outcome_to_json { clean with Run.faults = None }))

let test_json_non_object_rejected () =
  (* Every key of a plan is optional, so a plan that is not an object
     used to decode as the clean plan. *)
  List.iter
    (fun (s, found) ->
      match Result.bind (Json.parse s) Fault_plan.spec_of_json with
      | Error e ->
        Alcotest.(check string) s ("expected object, found " ^ found) e
      | Ok _ -> Alcotest.fail ("decoded " ^ s ^ " as a plan"))
    [ ({|"garbage"|}, "string"); ("[1,2,3]", "list"); ("0.5", "float") ]

let suite =
  [
    ( "fault_plan",
      [
        Alcotest.test_case "validation rejects" `Quick test_validate_rejects;
        Alcotest.test_case "degenerate GE rejected" `Quick
          test_validate_rejects_degenerate_ge;
        Alcotest.test_case "overlapping crashes rejected" `Quick
          test_validate_rejects_overlapping_crashes;
        Alcotest.test_case "json codec error paths" `Quick
          test_json_codec_error_paths;
        Alcotest.test_case "atoms/merge roundtrip" `Quick
          test_atoms_merge_roundtrip;
        Alcotest.test_case "scale_severity" `Quick test_scale_severity;
        Alcotest.test_case "split_crash" `Quick test_split_crash;
        Alcotest.test_case "validation accepts builtins" `Quick
          test_validate_accepts_builtins;
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "labels" `Quick test_labels;
        Alcotest.test_case "compose overlays" `Quick test_compose_overlays;
        Alcotest.test_case "draws deterministic" `Quick test_draws_deterministic;
        Alcotest.test_case "scheduled atoms" `Quick test_scheduled_atoms;
        Alcotest.test_case "alive windows" `Quick test_alive_windows;
        Alcotest.test_case "plan naming a missing station rejected" `Quick
          test_missing_station_rejected;
        Alcotest.test_case "check_stations" `Quick test_check_stations;
        QCheck_alcotest.to_alcotest prop_queries_match_reference;
        Alcotest.test_case "safety under every builtin plan" `Slow
          test_safety_under_every_builtin_plan;
        Alcotest.test_case "crash recovers within one tree epoch" `Slow
          test_crash_recovers_within_one_tree_epoch;
        Alcotest.test_case "misperception desync and recovery" `Slow
          test_misperception_desync_and_recovery;
        Alcotest.test_case "all-stations crash cold restart" `Quick
          test_all_stations_crash_cold_restart;
        Alcotest.test_case "run json deterministic" `Quick
          test_run_json_deterministic_under_plan;
        Alcotest.test_case "clean plan matches planless run" `Quick
          test_clean_plan_matches_planless_run;
        Alcotest.test_case "json non-object plan rejected" `Quick
          test_json_non_object_rejected;
      ] );
  ]
