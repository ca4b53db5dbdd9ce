(* rtnet.model: the explicit-state model checker.

   The load-bearing properties: the structural replica agreement
   (Step.same_shared) decides exactly fingerprint equality on states
   reached by randomized faulty feedback, and Step.plurality picks the
   documented consensus group; the model's slot is the simulator's, so
   run_trace under a trail's merged plan reports the same run, and
   every replica the slot advances is what Step.observe makes of it
   alone; exploration is deterministic and proves a small clean
   instance clean; the committed broken-parameters fixture yields a
   deadline-miss counterexample whose exported artifact replays through
   the real simulator to the same Oracle verdict and fingerprint; and
   trails fold into scheduled fault-plan atoms exactly. *)

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

(* -------------------- agreement: same_shared and plurality -------------------- *)

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

(* Replica states of a 2-source system driven by random faulty
   feedback: a lone attempt is carried or garbled, two attempts clash
   (destructively or with a key-arbitrated survivor), and each replica
   independently misperceives the slot (Harness.misperceived_view), so
   the replicas drift apart.  A replica that meets feedback its own
   history makes inconsistent restarts from [Step.init].  Returns every
   state reached. *)
let reached_states ~seed ~arbitrated ~slots =
  let rng = Prng.create seed in
  let replicas = [| Step.init; Step.init |] in
  let queues =
    Array.init 2 (fun src ->
        ref
          (List.init 6 (fun i ->
               mk_msg ~src ~uid:((src * 16) + i) ~arrival:(i * 1500)
                 ~deadline:(2000 + Prng.int rng 6000))))
  in
  let now = ref 0 in
  let slot = 512 in
  let seen = ref [] in
  for _ = 1 to slots do
    let msg_star src =
      match !(queues.(src)) with
      | m :: _ when m.Message.arrival <= !now -> Some m
      | _ -> None
    in
    let attempts =
      List.filter_map
        (fun src ->
          Step.decide diff_params ~source:src replicas.(src)
            ~msg_star:(msg_star src))
        [ 0; 1 ]
    in
    let resolution =
      match attempts with
      | [] -> Channel.Idle
      | [ a ] ->
        if Prng.int rng 4 = 0 then
          Channel.Garbled { on_wire = a.Channel.att_bits }
        else
          Channel.Tx
            {
              src = a.Channel.att_source;
              tag = a.Channel.att_tag;
              on_wire = a.Channel.att_bits;
            }
      | many ->
        let contenders =
          List.map (fun a -> (a.Channel.att_source, a.Channel.att_tag)) many
        in
        let survivor =
          if not arbitrated then None
          else
            let a =
              List.fold_left
                (fun best c ->
                  if
                    (c.Channel.att_key, c.Channel.att_source)
                    < (best.Channel.att_key, best.Channel.att_source)
                  then c
                  else best)
                (List.hd many) (List.tl many)
            in
            Some (a.Channel.att_source, a.Channel.att_tag, a.Channel.att_bits)
        in
        Channel.Clash { contenders; survivor }
    in
    let next_free =
      match resolution with
      | Channel.Idle | Channel.Clash { survivor = None; _ } -> !now + slot
      | Channel.Tx { on_wire; _ } | Channel.Garbled { on_wire } ->
        !now + on_wire
      | Channel.Clash { survivor = Some (_, _, on_wire); _ } ->
        !now + slot + on_wire
    in
    (match resolution with
    | Channel.Tx { src; _ } | Channel.Clash { survivor = Some (src, _, _); _ }
      -> (
      match !(queues.(src)) with
      | _ :: rest -> queues.(src) := rest
      | [] -> ())
    | _ -> ());
    for src = 0 to 1 do
      let observed =
        if Prng.int rng 5 = 0 then
          Rtnet_mac.Harness.misperceived_view resolution
        else resolution
      in
      replicas.(src) <-
        (try
           Step.observe diff_params ~source:src replicas.(src)
             ~resolution:observed ~next_free
         with Ddcr.Protocol_violation _ -> Step.init);
      seen := replicas.(src) :: !seen
    done;
    now := next_free
  done;
  !seen

(* Each reached state; a copy differing only in the private fields
   (the same shared state); Free and Attempt copies at its reft (another
   phase at an equal reft); and copies with exactly one shared field
   changed, each of which must compare unequal. *)
let with_variants st =
  let bump = function (lo, w) :: rest -> (lo, w + 1) :: rest | [] -> [ (0, 1) ] in
  let tts_variants tts =
    [
      { tts with Step.sent = not tts.Step.sent };
      { tts with Step.f_star = tts.Step.f_star + 1 };
      { tts with Step.t_stack = bump tts.Step.t_stack };
    ]
  in
  let in_search =
    match st.Step.phase with
    | Step.Free | Step.Attempt -> []
    | Step.Tts tts -> List.map (fun t -> Step.Tts t) (tts_variants tts)
    | Step.Sts (sts, tts) ->
      Step.Sts ({ sts with Step.time_leaf = sts.Step.time_leaf + 1 }, tts)
      :: Step.Sts ({ sts with Step.s_stack = bump sts.Step.s_stack }, tts)
      :: List.map (fun t -> Step.Sts (sts, t)) (tts_variants tts)
  in
  st
  :: { st with Step.rank = st.Step.rank + 1; last_out = not st.Step.last_out }
  :: { st with Step.phase = Step.Free }
  :: { st with Step.phase = Step.Attempt }
  :: { st with Step.reft = st.Step.reft + 1 }
  :: List.map (fun phase -> { st with Step.phase }) in_search

let prop_same_shared_is_fingerprint_equality =
  QCheck.Test.make ~name:"same_shared iff fingerprints equal" ~count:40
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, arbitrated) ->
      let states =
        Array.of_list
          (List.concat_map with_variants
             (reached_states ~seed ~arbitrated ~slots:40))
      in
      let fps = Array.map Step.fingerprint states in
      let agree = ref 0 and differ = ref 0 in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              let same = Step.same_shared a b in
              if same <> String.equal fps.(i) fps.(j) then
                QCheck.Test.fail_reportf "same_shared %b for %S vs %S" same
                  fps.(i) fps.(j);
              if i <> j then if same then incr agree else incr differ)
            states)
        states;
      (* Both outcomes occur: at least the private-field copies agree,
         the one-field copies differ. *)
      !agree > 0 && !differ > 0)

let test_plurality_rule () =
  let at reft = { Step.init with Step.reft = reft } in
  let a = at 1 and b = at 2 and c = at 3 in
  let everyone _ = true in
  Alcotest.(check (option int)) "unanimous: the first member" (Some 1)
    (Step.plurality ~member:(fun s -> s > 0) [| c; a; a; a |]);
  Alcotest.(check (option int)) "largest group wins" (Some 1)
    (Step.plurality ~member:everyone [| a; b; c; b |]);
  Alcotest.(check (option int)) "tie: the group holding the lowest id"
    (Some 0)
    (Step.plurality ~member:everyone [| a; b; b; a; c |]);
  Alcotest.(check (option int)) "private fields do not split a group"
    (Some 0)
    (Step.plurality ~member:everyone
       [| a; b; { a with Step.rank = 1; last_out = true }; b; a |]);
  Alcotest.(check (option int)) "non-members do not vote" (Some 2)
    (Step.plurality ~member:(fun s -> s <> 0 && s <> 1) [| a; a; c; b |]);
  Alcotest.(check (option int)) "no member" None
    (Step.plurality ~member:(fun _ -> false) [| a; b |])

(* -------------------- the simulator's slot as the model -------------------- *)

(* Transition.step runs the simulator's own slot (Ddcr.Slot.step) under
   a one-slot plan per action.  Along a random enabled trail of fault
   actions, Ddcr.run_trace under the trail's merged plan
   (Witness.plan_of_trail: crash windows from crash to revive) must
   report the same run as the per-slot choices: the same completions,
   the same per-source desync and resync counts and the same fault
   epochs. *)

module Scenarios = Rtnet_workload.Scenarios
module Run = Rtnet_stats.Run
module Harness = Rtnet_mac.Harness
module Slot = Rtnet_core.Ddcr.Slot

(* Two classes and two static indices per source, so a source can
   send twice in one static tree and its private rank matters. *)
let reference_instance ~arbitrated =
  if arbitrated then Scenarios.atm_fabric ~ports:3
  else
    Scenarios.uniform ~sources:3 ~classes_per_source:2 ~load:0.5
      ~deadline_windows:4.0

let reference_sys ~seed ~arbitrated =
  let inst = reference_instance ~arbitrated in
  let params =
    Ddcr_params.with_burst (Ddcr_params.default ~indices_per_source:2 inst) 0
  in
  let trace = Instance.trace inst ~seed ~horizon:1_000_000 in
  Transition.make ~params ~inst ~trace ~horizon:1_000_000

(* A random action, tried first; a disabled or violating one falls back
   to No_fault.  The trail ends early where No_fault violates too. *)
let random_trail sys ~rng ~slots =
  let z = sys.Transition.inst.Instance.num_sources in
  let pick () =
    match Prng.int rng 10 with
    | 0 -> Transition.Garble
    | 1 | 2 -> Transition.Misperceive (Prng.int rng z)
    | 3 -> Transition.Crash (Prng.int rng z)
    | 4 | 5 -> Transition.Revive (Prng.int rng z)
    | _ -> Transition.No_fault
  in
  let rec go nd trail n =
    if n = 0 then (nd, List.rev trail)
    else
      let try_step action =
        match Transition.step sys nd action with
        | Transition.Stepped nd' -> Some (action, nd')
        | Transition.Disabled | Transition.Violating _ -> None
      in
      let stepped =
        match try_step (pick ()) with
        | Some _ as r -> r
        | None -> try_step Transition.No_fault
      in
      match stepped with
      | Some (action, nd') ->
        go nd' ((Slot.now nd.Transition.slot, action) :: trail) (n - 1)
      | None -> (nd, List.rev trail)
  in
  go { (Transition.init sys) with Transition.budget = max_int } [] slots

let prop_simulator_matches_reference =
  QCheck.Test.make ~name:"run_trace agrees with Transition.step on trails"
    ~count:40
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, arbitrated) ->
      let sys = reference_sys ~seed ~arbitrated in
      let params = sys.Transition.params and inst = sys.Transition.inst in
      let nd, trail = random_trail sys ~rng:(Prng.create seed) ~slots:80 in
      if trail = [] then QCheck.assume_fail ()
      else begin
        let plan = Fault_plan.create ~seed:0 (Witness.plan_of_trail trail) in
        let o =
          Ddcr.run_trace ~plan params inst sys.Transition.trace
            ~horizon:(Slot.now nd.Transition.slot)
        in
        let h = Slot.harness nd.Transition.slot in
        let uids completions =
          List.map
            (fun c -> (c.Run.c_msg.Message.uid, c.Run.c_start, c.Run.c_finish))
            completions
        in
        let f = Option.get o.Run.faults in
        let per_source field = Array.of_list (List.map field f.Run.f_per_source) in
        let model field =
          Array.init inst.Instance.num_sources (fun s ->
              field (Harness.source_faults h s))
        in
        let fail what = QCheck.Test.fail_reportf "%s differ (seed %d)" what seed in
        if uids o.Run.completions <> uids (List.rev (Harness.completions h)) then
          fail "completions"
        else if
          per_source (fun sf -> sf.Run.sf_desync_slots)
          <> model (fun sf -> sf.Run.sf_desync_slots)
        then fail "desync counts"
        else if
          per_source (fun sf -> sf.Run.sf_resyncs)
          <> model (fun sf -> sf.Run.sf_resyncs)
        then fail "resync counts"
        else if f.Run.f_epochs <> Harness.epochs h then fail "fault epochs"
        else true
      end)

(* The per-replica reference.  The slot evaluates the shared step once
   per distinct (state, observation) pair and keeps each station's rank
   apart, so no library code evaluates a replica on its own any more.
   Along random enabled trails, every replica that was synced entering
   a slot, live in it and not resynced or restarted by it must be what
   Step.observe makes of its own pre-slot state and its own
   observation: the same shared state and the same rank. *)
let prop_replicas_match_step_observe =
  QCheck.Test.make ~name:"slot replicas match Step.observe per replica"
    ~count:40
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, arbitrated) ->
      let sys = reference_sys ~seed ~arbitrated in
      let params = sys.Transition.params in
      let z = sys.Transition.inst.Instance.num_sources in
      let _, trail = random_trail sys ~rng:(Prng.create seed) ~slots:80 in
      let resyncs slot s =
        (Harness.source_faults (Slot.harness slot) s).Run.sf_resyncs
      in
      let check pre post =
        for s = 0 to z - 1 do
          if
            Slot.synced pre s && Slot.alive post s
            && resyncs pre s = resyncs post s
          then begin
            let observed = Harness.observed (Slot.harness post) s in
            let expected =
              Step.observe params ~source:s (Slot.replica pre s)
                ~resolution:observed ~next_free:(Slot.now post)
            and got = Slot.replica post s in
            if
              not
                (Step.same_shared expected got
                && expected.Step.rank = got.Step.rank)
            then
              QCheck.Test.fail_reportf
                "source %d at t=%d: slot gave [%s] rank %d, Step.observe \
                 [%s] rank %d (seed %d)"
                s (Slot.now pre) (Step.fingerprint got) got.Step.rank
                (Step.fingerprint expected) expected.Step.rank seed
          end
        done
      in
      ignore
        (List.fold_left
           (fun nd (_, action) ->
             match Transition.step sys nd action with
             | Transition.Stepped nd' ->
               check nd.Transition.slot nd'.Transition.slot;
               nd'
             | Transition.Disabled | Transition.Violating _ ->
               QCheck.Test.fail_reportf "trail does not replay (seed %d)" seed)
           { (Transition.init sys) with Transition.budget = max_int }
           trail);
      true)

(* The slot decides by a deadline band computed once from the shared
   replica; Step.decide stays the per-replica reference.  Along random
   enabled trails, the senders of every slot — a Tx's source, or a
   Clash's contenders — must be exactly the stations live in the slot
   and synced entering it for which Step.decide, on their own replica
   and their queue head after the slot's deliveries, returns Some; a
   Garbled slot must have exactly one such station, an Idle one none.
   A sender is immune to misperception, so any station whose view is a
   Clash holds the wire's contenders. *)
let prop_senders_match_step_decide =
  QCheck.Test.make ~name:"slot senders match Step.decide per station"
    ~count:40
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, arbitrated) ->
      let sys = reference_sys ~seed ~arbitrated in
      let params = sys.Transition.params in
      let z = sys.Transition.inst.Instance.num_sources in
      let stations = List.init z Fun.id in
      let _, trail = random_trail sys ~rng:(Prng.create seed) ~slots:80 in
      let head pre s =
        let h = Slot.harness pre in
        let arrived =
          List.filter
            (fun m ->
              m.Message.arrival <= Slot.now pre
              && m.Message.cls.Message.cls_source = s)
            (Harness.pending h)
        in
        match List.sort Message.compare_edf (Harness.queued h s @ arrived) with
        | m :: _ -> Some m
        | [] -> None
      in
      let check pre post =
        let deciders =
          List.filter
            (fun s ->
              Slot.alive post s && Slot.synced pre s
              && Step.decide params ~source:s (Slot.replica pre s)
                   ~msg_star:(head pre s)
                 <> None)
            stations
        in
        let stats slot = Channel.stats (Harness.channel (Slot.harness slot)) in
        let before = stats pre and after = stats post in
        let senders =
          if after.Channel.collision_slots > before.Channel.collision_slots then
            List.find_map
              (fun s ->
                match Harness.observed (Slot.harness post) s with
                | Channel.Clash { contenders; _ } ->
                  Some (List.sort compare (List.map fst contenders))
                | Channel.Idle | Channel.Tx _ | Channel.Garbled _ -> None)
              stations
          else if after.Channel.garbled_count > before.Channel.garbled_count then
            if List.length deciders = 1 then Some deciders else None
          else if after.Channel.tx_count > before.Channel.tx_count then
            match Harness.completions (Slot.harness post) with
            | c :: _ -> Some [ c.Run.c_msg.Message.cls.Message.cls_source ]
            | [] -> None
          else Some []
        in
        if senders <> Some deciders then
          QCheck.Test.fail_reportf
            "slot at t=%d: senders [%s], Step.decide [%s] (seed %d)"
            (Slot.now pre)
            (match senders with
            | Some l -> String.concat "; " (List.map string_of_int l)
            | None -> "?")
            (String.concat "; " (List.map string_of_int deciders))
            seed
      in
      ignore
        (List.fold_left
           (fun nd (_, action) ->
             match Transition.step sys nd action with
             | Transition.Stepped nd' ->
               check nd.Transition.slot nd'.Transition.slot;
               nd'
             | Transition.Disabled | Transition.Violating _ ->
               QCheck.Test.fail_reportf "trail does not replay (seed %d)" seed)
           { (Transition.init sys) with Transition.budget = max_int }
           trail);
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
        QCheck_alcotest.to_alcotest prop_same_shared_is_fingerprint_equality;
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
        Alcotest.test_case "plurality rule" `Quick test_plurality_rule;
        QCheck_alcotest.to_alcotest prop_simulator_matches_reference;
        QCheck_alcotest.to_alcotest prop_replicas_match_step_observe;
        QCheck_alcotest.to_alcotest prop_senders_match_step_decide;
      ] );
  ]
