(* rtnet.model: the explicit-state model checker.

   The load-bearing properties: the pure Ddcr.Step transition agrees
   step-for-step with the mutable Automaton wrapper on randomized
   fault-free and faulty feedback sequences (the differential
   property); exploration is deterministic and proves a small clean
   instance clean; the committed broken-parameters fixture yields a
   deadline-miss counterexample whose exported artifact replays
   through the real simulator to the same Oracle verdict and
   fingerprint; and trails fold into scheduled fault-plan atoms
   exactly. *)

module Ddcr = Rtnet_core.Ddcr
module Step = Rtnet_core.Ddcr.Step
module Ddcr_params = Rtnet_core.Ddcr_params
module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Prng = Rtnet_util.Prng
module Json = Rtnet_util.Json
module Spec = Rtnet_campaign.Spec
module Oracle = Rtnet_analysis.Oracle
module Plain = Rtnet_chaos.Plain
module Subject = Rtnet_chaos.Subject
module Repro = Rtnet_chaos.Repro
module Transition = Rtnet_model.Transition
module Explore = Rtnet_model.Explore
module Witness = Rtnet_model.Witness

(* -------------------- differential: Step vs Automaton -------------------- *)

let diff_params =
  {
    Ddcr_params.time_m = 2;
    time_leaves = 8;
    class_width = 1000;
    alpha = 0;
    theta = 0;
    static_m = 2;
    static_leaves = 4;
    static_indices = [| [| 0; 2 |]; [| 1; 3 |] |];
    burst_bits = 0;
  }

let mk_msg ~src ~uid ~arrival ~deadline =
  {
    Message.uid;
    cls =
      {
        Message.cls_id = src;
        cls_name = "m";
        cls_source = src;
        cls_bits = 1000;
        cls_deadline = deadline;
        cls_burst = 1;
        cls_window = 100_000;
      };
    arrival;
  }

(* A micro-harness driving TWO implementations of both replicas of a
   2-source system through the same feedback: the mutable Automaton
   and a fold over the pure Step function.  The channel logic is the
   simplest faithful abstraction (lone attempt carried, two attempts
   clash — destructively or with a key-arbitrated survivor — and an
   optional garble corrupting a carried frame), which is enough to
   reach every observe arm.  Any disagreement in decisions, states or
   fingerprints fails the property. *)
let run_differential ~seed ~faulty ~arbitrated ~slots =
  let rng = Prng.create seed in
  let auts =
    [| Ddcr.Automaton.create diff_params ~source:0;
       Ddcr.Automaton.create diff_params ~source:1 |]
  in
  let pure = [| Step.init; Step.init |] in
  let queues =
    Array.init 2 (fun src ->
        ref
          (List.init 6 (fun i ->
               mk_msg ~src ~uid:((src * 16) + i) ~arrival:(i * 1500)
                 ~deadline:(2000 + Prng.int rng 6000))))
  in
  let now = ref 0 in
  let slot = 512 in
  for _ = 1 to slots do
    let msg_star src =
      match !(queues.(src)) with
      | m :: _ when m.Message.arrival <= !now -> Some m
      | _ -> None
    in
    let pop src =
      match !(queues.(src)) with
      | _ :: rest -> queues.(src) := rest
      | [] -> ()
    in
    let attempts =
      List.filter_map
        (fun src ->
          let from_aut =
            Ddcr.Automaton.decide auts.(src) ~msg_star:(msg_star src)
          in
          let from_step =
            Step.decide diff_params ~source:src pure.(src)
              ~msg_star:(msg_star src)
          in
          Alcotest.(check bool)
            (Printf.sprintf "decide agrees (source %d, t=%d)" src !now)
            true
            (from_aut = from_step);
          Option.map (fun a -> (src, a)) from_aut)
        [ 0; 1 ]
    in
    let garble = faulty && Prng.int rng 4 = 0 in
    let resolution =
      match attempts with
      | [] -> Channel.Idle
      | [ (_, a) ] ->
        if garble then Channel.Garbled { on_wire = a.Channel.att_bits }
        else
          Channel.Tx
            {
              src = a.Channel.att_source;
              tag = a.Channel.att_tag;
              on_wire = a.Channel.att_bits;
            }
      | many ->
        let contenders =
          List.map
            (fun (_, a) -> (a.Channel.att_source, a.Channel.att_tag))
            many
        in
        let survivor =
          if not arbitrated then None
          else
            let _, a =
              List.fold_left
                (fun ((_, best) as acc) ((_, c) as cand) ->
                  if
                    (c.Channel.att_key, c.Channel.att_source)
                    < (best.Channel.att_key, best.Channel.att_source)
                  then cand
                  else acc)
                (List.hd many) (List.tl many)
            in
            Some (a.Channel.att_source, a.Channel.att_tag, a.Channel.att_bits)
        in
        Channel.Clash { contenders; survivor }
    in
    let next_free =
      match resolution with
      | Channel.Idle -> !now + slot
      | Channel.Tx { on_wire; _ } | Channel.Garbled { on_wire } ->
        !now + on_wire
      | Channel.Clash { survivor = None; _ } -> !now + slot
      | Channel.Clash { survivor = Some (_, _, on_wire); _ } ->
        !now + slot + on_wire
    in
    (match resolution with
    | Channel.Tx { src; _ } | Channel.Clash { survivor = Some (src, _, _); _ }
      ->
      pop src
    | _ -> ());
    for src = 0 to 1 do
      let from_aut =
        match
          Ddcr.Automaton.observe auts.(src) ~resolution ~next_free
        with
        | () -> None
        | exception Ddcr.Protocol_violation m -> Some m
      in
      let from_step =
        match
          Step.observe diff_params ~source:src pure.(src) ~resolution
            ~next_free
        with
        | st ->
          pure.(src) <- st;
          None
        | exception Ddcr.Protocol_violation m -> Some m
      in
      Alcotest.(check (option string))
        (Printf.sprintf "observe agrees on violations (source %d, t=%d)" src
           !now)
        from_aut from_step;
      if from_aut = None then begin
        Alcotest.(check bool)
          (Printf.sprintf "states agree (source %d, t=%d)" src !now)
          true
          (Ddcr.Automaton.state auts.(src) = pure.(src));
        Alcotest.(check string)
          (Printf.sprintf "fingerprints agree (source %d, t=%d)" src !now)
          (Ddcr.Automaton.fingerprint auts.(src))
          (Step.fingerprint pure.(src))
      end
    done;
    now := next_free
  done

let prop_differential =
  QCheck.Test.make ~name:"pure Step agrees with mutable Automaton" ~count:60
    QCheck.(triple (int_range 0 10_000) bool bool)
    (fun (seed, faulty, arbitrated) ->
      run_differential ~seed ~faulty ~arbitrated ~slots:40;
      true)

(* -------------------- exploration -------------------- *)

let uniform2 =
  { Spec.sc_kind = "uniform"; sc_size = 2; sc_load = 0.3;
    sc_deadline_windows = 2.0; sc_fanout = 1 }

let horizon = 1_000_000

let sys_of ?params scenario =
  let inst = Spec.instance scenario in
  let trace = Instance.trace inst ~seed:1 ~horizon in
  let params =
    match params with Some p -> p | None -> Ddcr_params.default inst
  in
  Transition.make ~params ~inst ~trace ~horizon

let explore ?(depth = 12) ?(budget = 1) ?(max_violations = 1) sys =
  Explore.run
    ~config:
      {
        Explore.c_depth = depth;
        c_budget = budget;
        c_max_states = 200_000;
        c_max_violations = max_violations;
      }
    sys ~budget

let test_clean_instance_proves_clean () =
  let out = explore (sys_of uniform2) in
  Alcotest.(check bool) "no violation" true (out.Explore.o_findings = []);
  Alcotest.(check bool) "not truncated" false out.Explore.o_truncated;
  Alcotest.(check bool) "explored beyond the fault-free path" true
    (out.Explore.o_explored > 12)

let test_exploration_deterministic () =
  let a = explore (sys_of uniform2) and b = explore (sys_of uniform2) in
  Alcotest.(check int) "explored count is reproducible"
    a.Explore.o_explored b.Explore.o_explored;
  Alcotest.(check int) "transition count is reproducible"
    a.Explore.o_transitions b.Explore.o_transitions

let test_budget_zero_is_linear () =
  (* Without faults there is exactly one schedule, so BFS degenerates
     to the single fault-free path: states = transitions + 1 root,
     one successor each. *)
  let out = explore ~budget:0 (sys_of uniform2) in
  Alcotest.(check int) "one successor per state"
    out.Explore.o_explored
    (out.Explore.o_transitions + 1)

let test_model_rejects_bursting () =
  let inst = Spec.instance uniform2 in
  let p = Ddcr_params.with_burst (Ddcr_params.default inst) 65536 in
  Alcotest.check_raises "bursting is outside the model"
    (Invalid_argument
       "Transition.make: packet bursting is outside the model (burst_bits \
        must be 0)")
    (fun () ->
      ignore (Transition.make ~params:p ~inst ~trace:[] ~horizon))

(* -------------------- the committed broken-ξ fixture -------------------- *)

let fixture name = Filename.concat "fixtures" name

let broken_params () =
  match Json.parse_file (fixture "model_params_broken.json") with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Ddcr_params.of_json j with
    | Error e -> Alcotest.fail e
    | Ok p -> p)

let find_broken () =
  (* The fixture's tiny class width breaks the ξ class mapping: time
     indices land far beyond the F = 64 leaves, so fresh messages are
     shut out of time trees until reft creeps within c·F of their
     deadline — by which time the frame can only finish late.  The
     violation is reachable without any fault action. *)
  let out =
    explore ~depth:80 ~budget:0 (sys_of ~params:(broken_params ()) uniform2)
  in
  match out.Explore.o_findings with
  | [ f ] -> f
  | l -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length l))

let test_broken_params_found_fault_free () =
  let f = find_broken () in
  match f.Explore.f_violation with
  | Transition.Deadline_miss { uid; source; finish; deadline; _ } ->
    Alcotest.(check int) "first shut-out frame" 0 uid;
    Alcotest.(check int) "of source 0" 0 source;
    Alcotest.(check bool) "finished late" true (finish > deadline);
    Alcotest.(check bool) "trail is fault-free" true
      (List.for_all (fun (_, a) -> a = Transition.No_fault) f.Explore.f_trail)
  | v -> Alcotest.fail (Transition.describe_violation v)

let test_witness_round_trip () =
  let f = find_broken () in
  let src =
    {
      Witness.w_scenario = uniform2;
      w_horizon_ms = 1;
      w_params = Some (broken_params ());
      w_trace_seed = 1;
    }
  in
  let repro, report = Witness.export src f in
  (* The real simulator reproduces the model's verdict... *)
  (match report.Subject.rp_verdict with
  | Oracle.Deadline_miss { first_uid; _ } ->
    Alcotest.(check int) "simulator misses the same first frame" 0 first_uid
  | v -> Alcotest.fail ("unexpected verdict: " ^ Oracle.describe v));
  Alcotest.(check bool) "note names the model invariant" true
    (Astring_contains.contains repro.Repro.re_note "model counterexample");
  (* ...and the frozen artifact replays to identical verdict and
     fingerprint, surviving a JSON round trip. *)
  let r = Repro.replay (module Plain) repro in
  Alcotest.(check bool) "replayed verdict matches" true r.Repro.rr_verdict_ok;
  Alcotest.(check bool) "replayed fingerprint matches" true
    r.Repro.rr_fingerprint_ok;
  match Repro.of_json (module Plain) (Repro.to_json (module Plain) repro) with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
    Alcotest.(check string) "codec round trip is the identity"
      (Json.to_string (Repro.to_json (module Plain) repro))
      (Json.to_string (Repro.to_json (module Plain) decoded))

let test_committed_artifact_replays () =
  (* The committed artifact (regenerated by the model-smoke dune rule,
     byte-diffed on drift) re-executes to its frozen expectations. *)
  match Repro.load (module Plain) ~path:(fixture "model_repro_min.json") with
  | Error e -> Alcotest.fail e
  | Ok repro ->
    Alcotest.(check bool) "carries a params override" true
      (repro.Repro.re_env.Plain.cf_params <> None);
    let r = Repro.replay (module Plain) repro in
    Alcotest.(check bool) "verdict matches" true r.Repro.rr_verdict_ok;
    Alcotest.(check bool) "fingerprint matches" true r.Repro.rr_fingerprint_ok

(* -------------------- trail folding -------------------- *)

let test_plan_of_trail () =
  let spec =
    Witness.plan_of_trail
      [
        (0, Transition.No_fault);
        (512, Transition.Garble);
        (1024, Transition.Misperceive 1);
        (1536, Transition.Crash 0);
        (2048, Transition.Revive 0);
        (2560, Transition.Crash 1);
        (3072, Transition.No_fault);
      ]
  in
  Alcotest.(check (list int)) "scheduled garbles" [ 512 ]
    spec.Fault_plan.sp_garbles_at;
  Alcotest.(check (list (pair int int))) "scheduled misperceptions"
    [ (1, 1024) ] spec.Fault_plan.sp_misperceive_at;
  let windows =
    List.map
      (fun c ->
        (c.Fault_plan.cw_source, c.Fault_plan.cw_from, c.Fault_plan.cw_until))
      spec.Fault_plan.sp_crashes
  in
  Alcotest.(check bool) "closed crash window" true
    (List.mem (0, 1536, 2048) windows);
  (* The unclosed crash is closed just past the last explored slot. *)
  Alcotest.(check bool) "open crash window closed at trail end" true
    (List.mem (1, 2560, 3073) windows);
  Alcotest.(check int) "nothing else" 2 (List.length windows)

let suite =
  [
    ( "model",
      [
        QCheck_alcotest.to_alcotest prop_differential;
        Alcotest.test_case "clean instance proves clean" `Quick
          test_clean_instance_proves_clean;
        Alcotest.test_case "exploration is deterministic" `Quick
          test_exploration_deterministic;
        Alcotest.test_case "budget 0 degenerates to one path" `Quick
          test_budget_zero_is_linear;
        Alcotest.test_case "bursting rejected" `Quick
          test_model_rejects_bursting;
        Alcotest.test_case "broken ξ fixture violates fault-free" `Quick
          test_broken_params_found_fault_free;
        Alcotest.test_case "witness exports and replays" `Quick
          test_witness_round_trip;
        Alcotest.test_case "committed artifact replays" `Quick
          test_committed_artifact_replays;
        Alcotest.test_case "trail folds into scheduled atoms" `Quick
          test_plan_of_trail;
      ] );
  ]
