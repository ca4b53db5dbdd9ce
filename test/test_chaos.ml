(* rtnet.chaos: fault-schedule generator, adversarial search over the
   supervised pool, delta-debugging shrinker and replay artifacts.

   The load-bearing properties: sampling is a pure function of
   (seed, index); the committed smoke configuration keeps finding its
   seeded violations; shrinking preserves the verdict class while
   shedding fault events; a frozen repro replays to the same verdict
   and trace fingerprint; and a hung candidate costs its watchdog
   timeout, not the search.  The search-determinism and artifact tests
   take the subject as an input ([case]) and run over all three; the
   admission artifact test is registered in Test_admit. *)

module Json = Rtnet_util.Json
module Fault_plan = Rtnet_channel.Fault_plan
module Topo = Rtnet_topology.Topo
module Spec = Rtnet_campaign.Spec
module Oracle = Rtnet_analysis.Oracle
module Generator = Rtnet_chaos.Generator
module Subject = Rtnet_chaos.Subject
module Plain = Rtnet_chaos.Plain
module Federated = Rtnet_chaos.Federated
module Admission = Rtnet_chaos.Admission
module Search = Rtnet_chaos.Search
module Shrink = Rtnet_chaos.Shrink
module Repro = Rtnet_chaos.Repro
module Soak = Rtnet_chaos.Soak

let with_tmp_dir f =
  let dir = Filename.temp_file "rtnet_chaos" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* The same configuration as test/fixtures/chaos_smoke.json: a uniform
   workload near the feasibility edge, where the fault-free run passes
   (the lint gate asserts that) but injected faults push messages over
   their deadlines or strand a crashed source. *)
let smoke_scenario =
  { Spec.sc_kind = "uniform"; sc_size = 4; sc_load = 0.55;
    sc_deadline_windows = 1.5; sc_fanout = 1 }

let smoke_env =
  { Plain.cf_scenario = smoke_scenario; cf_horizon_ms = 2; cf_params = None }

let smoke_config =
  {
    (Search.default_config smoke_env
       { Generator.default_budget with Generator.g_max_events = 4;
         g_max_rate = 0.6 })
    with
    Search.s_seed = 7;
    s_count = 12;
    s_jobs = 2;
  }

let horizon = 2 * 1_000_000

(* -------------------- generator -------------------- *)

let plan_bytes p = Json.to_string (Fault_plan.spec_to_json p)

let sample ?(budget = Generator.default_budget) ?(seed = 7) index =
  Generator.sample ~budget ~seed ~index ~horizon ~sources:4

let test_generator_deterministic () =
  for i = 0 to 7 do
    Alcotest.(check string)
      (Printf.sprintf "candidate %d is a pure function of (seed, index)" i)
      (plan_bytes (sample i))
      (plan_bytes (sample i))
  done;
  let distinct =
    List.sort_uniq compare (List.init 8 (fun i -> plan_bytes (sample i)))
  in
  Alcotest.(check bool) "indices explore different plans" true
    (List.length distinct >= 6);
  Alcotest.(check bool) "seeds explore different plans" true
    (plan_bytes (sample ~seed:7 0) <> plan_bytes (sample ~seed:8 0))

let test_generator_respects_budget () =
  let budget =
    { Generator.default_budget with Generator.g_max_events = 3;
      g_max_rate = 0.4 }
  in
  for i = 0 to 31 do
    let p = sample ~budget i in
    let n = Fault_plan.event_count p in
    Alcotest.(check bool)
      (Printf.sprintf "candidate %d within event budget" i)
      true
      (n >= 1 && n <= 3);
    (match Fault_plan.validate ~horizon p with
    | Ok () -> ()
    | Error e ->
      Alcotest.fail (Printf.sprintf "candidate %d invalid: %s" i e));
    match p.Fault_plan.sp_garble with
    | Some (Fault_plan.Iid { rate }) ->
      Alcotest.(check bool) "iid rate capped" true (rate <= 0.4)
    | Some (Fault_plan.Gilbert_elliott { rate_good; rate_bad; _ }) ->
      Alcotest.(check bool) "ge rates capped" true
        (rate_good <= 0.4 && rate_bad <= 0.4)
    | None -> ()
  done

let test_generator_family_gates () =
  (* Disabling fault families restricts what sampling may emit. *)
  let crash_only =
    { Generator.default_budget with Generator.g_garble = false;
      g_misperceive = false }
  in
  for i = 0 to 15 do
    let p = sample ~budget:crash_only i in
    Alcotest.(check bool)
      (Printf.sprintf "candidate %d is crash-only" i)
      true
      (p.Fault_plan.sp_garble = None
      && p.Fault_plan.sp_misperception = 0.
      && p.Fault_plan.sp_crashes <> [])
  done;
  Alcotest.check_raises "all families disabled"
    (Invalid_argument "Generator.sample: every fault family disabled")
    (fun () ->
      ignore
        (sample
           ~budget:
             { Generator.default_budget with Generator.g_garble = false;
               g_misperceive = false; g_crash = false }
           0));
  Alcotest.check_raises "zero event budget"
    (Invalid_argument "Generator.sample: max_events < 1")
    (fun () ->
      ignore
        (sample
           ~budget:{ Generator.default_budget with Generator.g_max_events = 0 }
           0))

(* -------------------- subjects under test -------------------- *)

(* One subject under test: a small search over it, its committed
   minimized artifact, and a change to the frozen candidate that
   replay must catch. *)
type case =
  | Case : {
      subject : ('e, 's, 'c) Subject.t;
      config : ('e, 's) Search.config;
      fixture : string;
      tamper : 'c -> 'c;
    }
      -> case

let fixture name = Filename.concat "fixtures" name

let plain_case =
  Case
    {
      subject = (module Plain);
      config = smoke_config;
      fixture = fixture "chaos_repro_min.json";
      tamper = (fun cd -> { cd with Plain.cd_fault_seed = 42 });
    }

let topo_env =
  { Federated.tc_segments = 3; tc_fanout = 2; tc_sources = 4; tc_load = 0.3;
    tc_deadline_windows = 8.0; tc_horizon_ms = 5 }

(* Without the bridge crash the run passes, which matches neither the
   frozen verdict nor the frozen fingerprint. *)
let topo_case =
  Case
    {
      subject = (module Federated);
      config =
        {
          (Search.default_config topo_env Generator.default_budget) with
          Search.s_seed = 29;
          s_count = 4;
          s_jobs = 2;
        };
      fixture = fixture "topo_chaos_repro_min.json";
      tamper = (fun td -> { td with Federated.td_plans = [] });
    }

(* The CLI admission smoke search's first candidates, over the
   horizon-starved parameters.  Emptying the frozen stream admits
   nothing, which passes. *)
let admit_case =
  let params =
    match
      Result.bind
        (Json.parse_file (fixture "model_params_broken.json"))
        Rtnet_core.Ddcr_params.of_json
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  Case
    {
      subject = (module Admission);
      config =
        {
          (Search.default_config
             {
               Admission.an_phy = "gigabit-ethernet";
               an_sources = 2;
               an_params = params;
               an_horizon_ms = 10;
             }
             { Admission.ch_pool = 8; ch_requests = 64 })
          with
          Search.s_seed = 7;
          s_count = 4;
          s_jobs = 2;
        };
      fixture = fixture "admit_chaos_repro_min.json";
      tamper = (fun cd -> { cd with Admission.ar_requests = [] });
    }

let test_search_deterministic (Case { subject; config; _ }) () =
  let key r =
    List.map
      (fun f ->
        ( f.Search.fi_index,
          Oracle.label f.Search.fi_report.Subject.rp_verdict,
          f.Search.fi_report.Subject.rp_fingerprint ))
      r.Search.r_findings
  in
  let r1 = Search.run subject config in
  let r2 = Search.run subject config in
  Alcotest.(check int) "all candidates examined" config.Search.s_count
    r1.Search.r_examined;
  Alcotest.(check bool) "same seed, same findings" true (key r1 = key r2)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Decode-then-encode reproduces the committed bytes, the frozen run
   replays to the same verdict and fingerprint, a tampered candidate or
   verdict is caught, and load_any dispatches the file to this
   subject. *)
let test_repro_roundtrip (Case { subject; fixture; tamper; _ }) () =
  let repro =
    match Repro.load subject ~path:fixture with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "copy.json" in
      Repro.save subject ~path repro;
      Alcotest.(check string) "artifact bytes round-trip" (read_file fixture)
        (read_file path));
  let r = Repro.replay subject repro in
  Alcotest.(check bool) "verdict reproduces" true r.Repro.rr_verdict_ok;
  Alcotest.(check bool) "fingerprint reproduces" true r.Repro.rr_fingerprint_ok;
  let r =
    Repro.replay subject
      { repro with Repro.re_candidate = tamper repro.Repro.re_candidate }
  in
  Alcotest.(check bool) "tampered candidate detected" false
    (r.Repro.rr_verdict_ok && r.Repro.rr_fingerprint_ok);
  (* Every committed fixture freezes a failure, so expecting Pass must
     fail the verdict comparison alone. *)
  let r = Repro.replay subject { repro with Repro.re_verdict = Oracle.Pass } in
  Alcotest.(check bool) "tampered verdict drifts" false r.Repro.rr_verdict_ok;
  Alcotest.(check bool) "fingerprint still reproduces" true
    r.Repro.rr_fingerprint_ok;
  match Repro.load_any ~path:fixture with
  | Ok (Repro.Any (s, r)) ->
    Alcotest.(check string) "load_any picks this subject"
      (Json.to_string (Repro.to_json subject repro))
      (Json.to_string (Repro.to_json s r))
  | Error e -> Alcotest.fail e

(* -------------------- search -------------------- *)

let run_smoke_search () = Search.run (module Plain) smoke_config

let test_search_finds_seeded_violations () =
  let res = run_smoke_search () in
  Alcotest.(check int) "every candidate examined" 12 res.Search.r_examined;
  Alcotest.(check bool) "not flagged as exhausted" false
    res.Search.r_exhausted;
  Alcotest.(check (list int)) "nothing gave up" []
    (List.map (fun g -> g.Search.gu_index) res.Search.r_gave_up);
  Alcotest.(check bool) "finds violations" true
    (List.length res.Search.r_findings > 0);
  Alcotest.(check bool) "but not everything fails" true
    (List.length res.Search.r_findings < res.Search.r_examined);
  (* Findings arrive sorted and verdict-bearing. *)
  let idx = List.map (fun f -> f.Search.fi_index) res.Search.r_findings in
  Alcotest.(check (list int)) "sorted by candidate index"
    (List.sort compare idx) idx;
  List.iter
    (fun f ->
      Alcotest.(check bool) "finding verdicts are failures" true
        (Oracle.is_failure f.Search.fi_report.Subject.rp_verdict))
    res.Search.r_findings

(* The plain subject, except that candidate 0 hangs far past any
   sensible watchdog, so the kill path is exercised. *)
module Hung = struct
  include Plain

  let run ?postmortem env cd =
    if cd = Search.candidate_of (module Plain) smoke_config 0 then
      Unix.sleepf 60.;
    Plain.run ?postmortem env cd
end

let test_search_watchdog_hung_candidate () =
  (* Candidate 0 must be killed, retried once, then surface as a
     structured give-up — while the other candidates complete
     normally. *)
  let config =
    {
      smoke_config with
      Search.s_count = 3;
      s_watchdog_s = Some 0.2;
      s_retries = 1;
      s_backoff_s = 0.01;
    }
  in
  let res = Search.run (module Hung) config in
  Alcotest.(check int) "all candidates accounted for" 3 res.Search.r_examined;
  (match res.Search.r_gave_up with
  | [ g ] ->
    Alcotest.(check int) "hung candidate gave up" 0 g.Search.gu_index;
    Alcotest.(check int) "after watchdog kill + one retry" 2
      g.Search.gu_attempts;
    Alcotest.(check bool) "reason names the watchdog" true
      (Astring_contains.contains g.Search.gu_reason "watchdog")
  | gs ->
    Alcotest.fail
      (Printf.sprintf "expected exactly the hung candidate to give up, saw %d"
         (List.length gs)));
  Alcotest.(check bool) "candidates 1 and 2 still examined" true
    (not (List.exists (fun f -> f.Search.fi_index = 0) res.Search.r_findings))

let test_search_wall_budget_partial () =
  (* An already-exhausted budget yields partial (here: empty) results
     and the exhausted flag — never an exception. *)
  let res =
    Search.run (module Plain)
      { smoke_config with Search.s_wall_budget_s = Some 0. }
  in
  Alcotest.(check bool) "flagged exhausted" true res.Search.r_exhausted;
  Alcotest.(check bool) "partial results" true
    (res.Search.r_examined < smoke_config.Search.s_count)

let test_search_config_roundtrip () =
  match Plain.config_of_json (Plain.config_to_json smoke_config) with
  | Ok c -> Alcotest.(check bool) "round-trips" true (c = smoke_config)
  | Error e -> Alcotest.fail e

(* -------------------- shrink -------------------- *)

let four_event_finding () =
  let res = run_smoke_search () in
  match
    List.filter
      (fun f -> Fault_plan.event_count f.Search.fi_candidate.Plain.cd_plan = 4)
      res.Search.r_findings
  with
  | f :: _ -> f
  | [] -> Alcotest.fail "smoke search lost its 4-event finding"

let test_shrink_reduces_and_preserves () =
  let f = four_event_finding () in
  let cd = f.Search.fi_candidate in
  let target = f.Search.fi_report.Subject.rp_verdict in
  let oracle = Subject.run (module Plain) smoke_env in
  let res = Shrink.run (module Plain) ~oracle ~target cd in
  let plan = res.Shrink.sh_candidate.Plain.cd_plan in
  Alcotest.(check bool) "at most 25% of the original events" true
    (Fault_plan.event_count plan <= 1);
  Alcotest.(check bool) "verdict class preserved" true
    (Oracle.same_class res.Shrink.sh_report.Subject.rp_verdict target);
  Alcotest.(check bool) "minimized plan still fails on re-check" true
    (Oracle.same_class
       (oracle { cd with Plain.cd_plan = plan }).Subject.rp_verdict target);
  Alcotest.(check bool) "oracle consulted" true (res.Shrink.sh_checks > 0)

let pass = { Subject.rp_verdict = Oracle.Pass; rp_fingerprint = "00" }

let test_shrink_keeps_unreproducible_input () =
  (* If the plan does not reproduce the target verdict, shrinking has
     nothing to stand on: the input comes back unchanged. *)
  let cd =
    { Plain.cd_plan = Fault_plan.iid 0.05; cd_trace_seed = 1; cd_fault_seed = 2 }
  in
  let res =
    Shrink.run (module Plain)
      ~oracle:(fun _ -> pass)
      ~target:(Oracle.Failed_resync { source = 0 })
      cd
  in
  Alcotest.(check string) "plan unchanged"
    (plan_bytes cd.Plain.cd_plan)
    (plan_bytes res.Shrink.sh_candidate.Plain.cd_plan)

(* -------------------- repro -------------------- *)

let plain_repro ?params () =
  Repro.make
    ~env:{ smoke_env with Plain.cf_params = params }
    ~candidate:
      { Plain.cd_plan = Fault_plan.iid 0.1; cd_trace_seed = 1; cd_fault_seed = 2 }
    ~report:pass ~note:""

let test_repro_rejects_bad_artifacts () =
  let good = Repro.to_json (module Plain) (plain_repro ()) in
  let patch key v =
    match good with
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> (k, if k = key then v else x)) fields)
    | _ -> Alcotest.fail "artifact is not an object"
  in
  (match Repro.of_json (module Plain) (patch "chaos_repro_version" (Json.Int 99)) with
  | Error e ->
    Alcotest.(check bool) "version mismatch diagnosed" true
      (Astring_contains.contains e "version")
  | Ok _ -> Alcotest.fail "accepted an unknown schema version");
  (* A scenario with no single-bus instance is an invalid artifact, not
     a run-time crash. *)
  List.iter
    (fun kind ->
      match
        Repro.of_json (module Plain)
          (patch "scenario"
             (Spec.scenario_to_json { smoke_scenario with Spec.sc_kind = kind }))
      with
      | Error e ->
        Alcotest.(check bool) ("scenario " ^ kind ^ " diagnosed") true
          (Astring_contains.contains e "scenario")
      | Ok _ -> Alcotest.fail ("accepted scenario " ^ kind))
    [ "bogus"; "topo" ];
  match
    Repro.of_json (module Plain)
      (patch "plan"
         (Fault_plan.spec_to_json
            (Fault_plan.crash ~source:0 ~from_:0 ~until:(50 * 1_000_000))))
  with
  | Error e ->
    Alcotest.(check bool) "plan re-validated against the horizon" true
      (Astring_contains.contains e "plan")
  | Ok _ -> Alcotest.fail "accepted a plan reaching past the horizon"

(* Schema v2 added the optional protocol-parameter override; a v1
   artifact (no "params" key) must keep decoding, and a file claiming
   v1 while carrying the v2-only key must be rejected, not silently
   reinterpreted. *)
let test_repro_v1_back_compat () =
  let v2 =
    Repro.to_json (module Plain)
      (plain_repro
         ~params:(Rtnet_core.Ddcr_params.default (Spec.instance smoke_scenario))
         ())
  in
  let fields = match v2 with Json.Obj f -> f | _ -> Alcotest.fail "not an object" in
  let v1 =
    Json.Obj
      (List.filter_map
         (fun (k, x) ->
           if k = "params" then None
           else if k = "chaos_repro_version" then Some (k, Json.Int 1)
           else Some (k, x))
         fields)
  in
  (match Repro.of_json (module Plain) v1 with
  | Ok r ->
    Alcotest.(check bool) "v1 decodes without a params override" true
      (r.Repro.re_env.Plain.cf_params = None)
  | Error e -> Alcotest.fail ("v1 artifact rejected: " ^ e));
  let v1_with_params =
    Json.Obj
      (List.map
         (fun (k, x) ->
           (k, if k = "chaos_repro_version" then Json.Int 1 else x))
         fields)
  in
  match Repro.of_json (module Plain) v1_with_params with
  | Error e ->
    Alcotest.(check bool) "v1 + params is diagnosed" true
      (Astring_contains.contains e "version")
  | Ok _ -> Alcotest.fail "accepted a v1 artifact with a v2-only key"

let test_candidate_run_deterministic () =
  let f = four_event_finding () in
  let fp () =
    (Subject.run (module Plain) smoke_env f.Search.fi_candidate)
      .Subject.rp_fingerprint
  in
  Alcotest.(check string) "same candidate, same fingerprint" (fp ()) (fp ())

(* -------------------- soak -------------------- *)

let test_soak_collects_deduped_repros () =
  with_tmp_dir (fun dir ->
      let config =
        {
          Soak.so_search = { smoke_config with Search.s_count = 6 };
          so_rounds = 2;
          so_wall_budget_s = None;
          so_out_dir = Some dir;
        }
      in
      let res = Soak.run config in
      Alcotest.(check int) "both rounds ran" 2 res.Soak.so_rounds_run;
      Alcotest.(check int) "every candidate examined" 12 res.Soak.so_examined;
      Alcotest.(check bool) "found something" true (res.Soak.so_findings > 0);
      Alcotest.(check int) "one artifact per distinct finding"
        res.Soak.so_findings
        (List.length res.Soak.so_repro_paths);
      (* Every written artifact is itself a valid, loadable repro. *)
      List.iter
        (fun path ->
          match Repro.load (module Plain) ~path with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
        res.Soak.so_repro_paths)

(* -------------------- federated (topology) chaos -------------------- *)

let topo_fixture = fixture "topo_chaos_repro_min.json"

let plans_bytes plans =
  String.concat ";" (List.map (fun (n, sp) -> n ^ "=" ^ plan_bytes sp) plans)

let test_sample_topo_deterministic_and_targeted () =
  let topo = Federated.tree topo_env in
  let horizon = topo_env.Federated.tc_horizon_ms * 1_000_000 in
  let sample i =
    Generator.sample_topo ~budget:Generator.default_budget ~seed:5 ~index:i
      ~horizon topo
  in
  Alcotest.(check string) "pure function of (seed, index)"
    (plans_bytes (sample 3))
    (plans_bytes (sample 3));
  Alcotest.(check bool) "different indices draw different plans" true
    (plans_bytes (sample 3) <> plans_bytes (sample 4)
    || plans_bytes (sample 5) <> plans_bytes (sample 6));
  for i = 0 to 15 do
    let plans = sample i in
    List.iter
      (fun (seg, sp) ->
        Alcotest.(check bool) "plan targets a known segment" true
          (Topo.find_segment topo seg <> None);
        match Fault_plan.validate ~horizon sp with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
      plans;
    (* The tentpole guarantee: a non-empty federated plan always
       exercises bridge failover — at least one crash window parks an
       incoming bridge station. *)
    if plans <> [] then
      Alcotest.(check bool)
        (Printf.sprintf "sample %d crashes a bridge station" i)
        true
        (List.exists
           (fun (seg, sp) ->
             List.exists
               (fun cw ->
                 List.exists
                   (fun b ->
                     b.Topo.br_to = seg
                     && b.Topo.br_station = cw.Fault_plan.cw_source)
                   topo.Topo.tp_bridges)
               sp.Fault_plan.sp_crashes)
           plans)
  done

let load_topo_fixture () =
  match Repro.load (module Federated) ~path:topo_fixture with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_run_topo_deterministic_and_classified () =
  let repro = load_topo_fixture () in
  let run () =
    Subject.run (module Federated) repro.Repro.re_env repro.Repro.re_candidate
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check string) "same candidate, same fingerprint"
    r1.Subject.rp_fingerprint r2.Subject.rp_fingerprint;
  Alcotest.(check bool) "verdict matches the frozen one" true
    (Oracle.same_class r1.Subject.rp_verdict repro.Repro.re_verdict);
  match r1.Subject.rp_verdict with
  | Oracle.Handoff_loss { bridge; chains } ->
    Alcotest.(check string) "shed at the crashed bridge" "br2" bridge;
    Alcotest.(check bool) "chains counted" true (chains > 0)
  | v -> Alcotest.fail ("expected a hand-off loss, got " ^ Oracle.label v)

let test_shrink_topo_preserves_class () =
  let repro = load_topo_fixture () in
  let td = repro.Repro.re_candidate and target = repro.Repro.re_verdict in
  let res =
    Shrink.run (module Federated)
      ~oracle:(Subject.run (module Federated) repro.Repro.re_env)
      ~target td
  in
  Alcotest.(check bool) "verdict class preserved" true
    (Oracle.same_class res.Shrink.sh_report.Subject.rp_verdict target);
  Alcotest.(check bool) "oracle consulted" true (res.Shrink.sh_checks > 0);
  let events td =
    List.fold_left
      (fun a (_, sp) -> a + Fault_plan.event_count sp)
      0 td.Federated.td_plans
  in
  Alcotest.(check bool) "never grows" true
    (events res.Shrink.sh_candidate <= events td);
  (* An unreproducible input comes back unchanged, as with plain
     shrinking. *)
  let res = Shrink.run (module Federated) ~oracle:(fun _ -> pass) ~target td in
  Alcotest.(check string) "plans unchanged"
    (plans_bytes td.Federated.td_plans)
    (plans_bytes res.Shrink.sh_candidate.Federated.td_plans)

let test_topo_repro_rejects_bad_artifacts () =
  let good = Repro.to_json (module Federated) (load_topo_fixture ()) in
  let patch key v =
    match good with
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> (k, if k = key then v else x)) fields)
    | _ -> Alcotest.fail "artifact is not an object"
  in
  let decode = Repro.of_json (module Federated) in
  (match decode (patch "topo_chaos_repro_version" (Json.Int 99)) with
  | Error e ->
    Alcotest.(check bool) "version mismatch diagnosed" true
      (Astring_contains.contains e "version")
  | Ok _ -> Alcotest.fail "accepted an unknown schema version");
  (match
     decode
       (patch "plans"
          (Json.Obj
             [ ("ghost", Fault_plan.spec_to_json (Fault_plan.iid 0.1)) ]))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a plan naming an unknown segment");
  match
    decode
      (patch "plans"
         (Json.Obj
            [
              ( "seg0",
                Fault_plan.spec_to_json
                  (Fault_plan.crash ~source:4 ~from_:0 ~until:(50 * 1_000_000))
              );
            ]))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a plan reaching past the horizon"

(* An environment no tree can be built from is a typed error, never an
   exception out of [Topo.tree]. *)
let test_topo_repro_rejects_bad_env () =
  let good = Repro.to_json (module Federated) (load_topo_fixture ()) in
  let patch_env key v =
    match good with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, x) ->
             match (k, x) with
             | "topology", Json.Obj env ->
               ( k,
                 Json.Obj
                   (List.map (fun (k', y) -> (k', if k' = key then v else y)) env)
               )
             | _ -> (k, x))
           fields)
    | _ -> Alcotest.fail "artifact is not an object"
  in
  List.iter
    (fun (key, v, label) ->
      match Repro.of_json (module Federated) (patch_env key v) with
      | Error e ->
        Alcotest.(check bool) (label ^ " names the field") true
          (Astring_contains.contains e key)
      | Ok _ -> Alcotest.fail ("accepted " ^ label)
      | exception exn ->
        Alcotest.fail (label ^ " raised " ^ Printexc.to_string exn))
    [
      ("deadline_windows", Json.Float 0., "a zero deadline");
      ("deadline_windows", Json.Float (-2.), "a negative deadline");
      ("deadline_windows", Json.Float infinity, "an infinite deadline");
      ("load", Json.Float (-1.), "a negative load");
      ("load", Json.Float 0., "a zero load");
      ("load", Json.Float nan, "a NaN load");
    ]

(* A plain environment must bound its trace before any is generated: a
   load of 5.1e307 clamps every window to one bit-time, and a huge
   horizon resolves a slot per slot time. *)
let test_plain_check_env_bounds_work () =
  let with_load load =
    { smoke_env with Plain.cf_scenario = { smoke_scenario with Spec.sc_load = load } }
  in
  let rejected label env =
    match Plain.check_env env with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted " ^ label)
    | exception exn -> Alcotest.fail (label ^ " raised " ^ Printexc.to_string exn)
  in
  Alcotest.(check bool) "the smoke environment passes" true
    (Result.is_ok (Plain.check_env smoke_env));
  rejected "a load of 5.1e307" (with_load 5.1e307);
  rejected "a load of 1e4" (with_load 1e4);
  rejected "a horizon of max_int ms"
    { smoke_env with Plain.cf_horizon_ms = max_int };
  rejected "a horizon past the cap"
    { smoke_env with Plain.cf_horizon_ms = Plain.max_horizon_ms + 1 };
  (* The decoder goes through the same check. *)
  (match Repro.load (module Plain) ~path:(fixture "chaos_repro_huge_load.json") with
  | Error e ->
    Alcotest.(check bool) "the message names the trace size" true
      (Astring_contains.contains e "messages")
  | Ok _ -> Alcotest.fail "decoded the huge-load artifact");
  List.iter
    (fun name ->
      match Repro.load (module Plain) ~path:(fixture name) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    [ "chaos_repro_min.json"; "model_repro_min.json" ]

(* A federated environment must bound its work before the tree is
   built: a huge horizon resolves a slot per slot time, a huge load
   clamps every window to one bit-time, and a huge station count built
   the whole tree before any size was checked. *)
let test_federated_check_env_bounds_work () =
  (* The decoder goes through the check: both oversized artifacts are
     typed errors naming what is too large. *)
  List.iter
    (fun (name, what) ->
      match Repro.load (module Federated) ~path:(fixture name) with
      | Error e ->
        Alcotest.(check bool) (name ^ " names the " ^ what) true
          (Astring_contains.contains e what)
      | Ok _ -> Alcotest.fail ("decoded " ^ name))
    [
      ("topo_chaos_repro_huge_horizon.json", "horizon_ms");
      ("topo_chaos_repro_huge_sources.json", "stations");
    ];
  let rejected label env =
    match Federated.check_env env with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted " ^ label)
    | exception exn -> Alcotest.fail (label ^ " raised " ^ Printexc.to_string exn)
  in
  Alcotest.(check bool) "the committed environment passes" true
    (Result.is_ok (Federated.check_env topo_env));
  rejected "a horizon past the cap"
    { topo_env with Federated.tc_horizon_ms = Plain.max_horizon_ms + 1 };
  rejected "a load of 1e300" { topo_env with Federated.tc_load = 1e300 };
  rejected "100 000 000 segments"
    { topo_env with Federated.tc_segments = 100_000_000 };
  rejected "max_int segments of max_int sources"
    { topo_env with Federated.tc_segments = max_int; tc_sources = max_int };
  (* Within the horizon and station caps, the segments' summed message
     bound binds: the committed tree over one minute. *)
  rejected "a one-minute horizon"
    { topo_env with Federated.tc_horizon_ms = Plain.max_horizon_ms };
  rejected "no source" { topo_env with Federated.tc_sources = 0 };
  rejected "a negative load" { topo_env with Federated.tc_load = -1. };
  rejected "a zero fanout" { topo_env with Federated.tc_fanout = 0 };
  match Repro.load (module Federated) ~path:topo_fixture with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("topo_chaos_repro_min.json: " ^ e)

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "generator deterministic" `Quick
          test_generator_deterministic;
        Alcotest.test_case "generator respects budget" `Quick
          test_generator_respects_budget;
        Alcotest.test_case "generator family gates" `Quick
          test_generator_family_gates;
        Alcotest.test_case "search finds seeded violations" `Quick
          test_search_finds_seeded_violations;
        Alcotest.test_case "search deterministic" `Quick
          (test_search_deterministic plain_case);
        Alcotest.test_case "search watchdog on hung candidate" `Quick
          test_search_watchdog_hung_candidate;
        Alcotest.test_case "search wall budget partial" `Quick
          test_search_wall_budget_partial;
        Alcotest.test_case "search config round-trip" `Quick
          test_search_config_roundtrip;
        Alcotest.test_case "shrink reduces and preserves" `Quick
          test_shrink_reduces_and_preserves;
        Alcotest.test_case "shrink keeps unreproducible input" `Quick
          test_shrink_keeps_unreproducible_input;
        Alcotest.test_case "repro round-trip and replay" `Quick
          (test_repro_roundtrip plain_case);
        Alcotest.test_case "repro rejects bad artifacts" `Quick
          test_repro_rejects_bad_artifacts;
        Alcotest.test_case "repro v1 back-compat" `Quick
          test_repro_v1_back_compat;
        Alcotest.test_case "candidate run deterministic" `Quick
          test_candidate_run_deterministic;
        Alcotest.test_case "soak collects deduped repros" `Quick
          test_soak_collects_deduped_repros;
        Alcotest.test_case "sample_topo deterministic and targeted" `Quick
          test_sample_topo_deterministic_and_targeted;
        Alcotest.test_case "run_topo deterministic and classified" `Slow
          test_run_topo_deterministic_and_classified;
        Alcotest.test_case "topo repro replay and load_any" `Slow
          (test_repro_roundtrip topo_case);
        Alcotest.test_case "shrink_topo preserves class" `Slow
          test_shrink_topo_preserves_class;
        Alcotest.test_case "topo repro rejects bad artifacts" `Quick
          test_topo_repro_rejects_bad_artifacts;
        Alcotest.test_case "topo search deterministic" `Slow
          (test_search_deterministic topo_case);
        (* Registered here, not in the admit suite: the pool forks, and
           suites after this one start domains. *)
        Alcotest.test_case "admit search deterministic" `Quick
          (test_search_deterministic admit_case);
        Alcotest.test_case "topo repro rejects a bad environment" `Quick
          test_topo_repro_rejects_bad_env;
        Alcotest.test_case "plain check_env bounds the work" `Quick
          test_plain_check_env_bounds_work;
        Alcotest.test_case "federated check_env bounds the work" `Quick
          test_federated_check_env_bounds_work;
      ] );
  ]
