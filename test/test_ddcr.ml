module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Scenarios = Rtnet_workload.Scenarios
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Arrival = Rtnet_workload.Arrival
module Channel = Rtnet_channel.Channel
module Phy = Rtnet_channel.Phy
module Run = Rtnet_stats.Run

let ms = 1_000_000

(* --- Step unit tests: the per-source automaton under hand-driven
   channel feedback --- *)

module Step = Ddcr.Step

let tiny_params =
  {
    Ddcr_params.time_m = 2;
    time_leaves = 8;
    class_width = 1000;
    alpha = 0;
    theta = 0;
    static_m = 2;
    static_leaves = 4;
    static_indices = [| [| 0 |]; [| 3 |] |];
    burst_bits = 0;
  }

let mk_msg ?(uid = 0) ~arrival ~deadline () =
  {
    Message.uid;
    cls =
      {
        Message.cls_id = 0;
        cls_name = "m";
        cls_source = 0;
        cls_bits = 1000;
        cls_deadline = deadline;
        cls_burst = 1;
        cls_window = 100_000;
      };
    arrival;
  }

let clash ?survivor contenders =
  Channel.Clash { contenders; survivor }

let decide ~source st msg = Step.decide tiny_params ~source st ~msg_star:msg

let observe ~source st resolution next_free =
  Step.observe tiny_params ~source st ~resolution ~next_free

(* Feed one clash per listed slot boundary. *)
let clashes ~source st boundaries =
  List.fold_left
    (fun st nf -> observe ~source st (clash [ (0, 0); (1, 1) ]) nf)
    st boundaries

let test_automaton_free_phase () =
  let st = Step.init in
  Alcotest.(check string) "starts free" "free" (Step.phase_name st);
  Alcotest.(check bool) "silent without msg" true
    (decide ~source:0 st None = None);
  let m = mk_msg ~arrival:0 ~deadline:5000 () in
  (match decide ~source:0 st (Some m) with
  | Some att ->
    Alcotest.(check int) "attempts own frame" 0 att.Channel.att_source;
    Alcotest.(check int) "tag is uid" 0 att.Channel.att_tag
  | None -> Alcotest.fail "expected attempt in free phase");
  (* Tx and Idle keep it free; a clash starts CSMA/DDCR. *)
  let st = observe ~source:0 st Channel.Idle 512 in
  Alcotest.(check string) "still free" "free" (Step.phase_name st);
  let st = observe ~source:0 st (clash [ (0, 0); (1, 1) ]) 1024 in
  Alcotest.(check string) "clash enters TTs" "tts" (Step.phase_name st)

let test_automaton_tts_walk () =
  let st = clashes ~source:0 Step.init [ 1000 ] in
  (* reft = 1000; a message with DM in [1000, 9000) maps to the root
     interval. *)
  let m = mk_msg ~arrival:0 ~deadline:3000 () (* DM = 3000 -> idx 2 *) in
  (match decide ~source:0 st (Some m) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected participation at root");
  (* Root clash: splits into [0,4) then [4,8). *)
  let st = clashes ~source:0 st [ 1512 ] in
  Alcotest.(check bool) "fingerprint shows two intervals" true
    (Astring_contains.contains (Step.fingerprint st) "[0+4)[4+4)");
  (* A message with idx 6 must stay silent while [0,4) is probed. *)
  let far = mk_msg ~uid:1 ~arrival:0 ~deadline:7100 () (* idx 6 *) in
  Alcotest.(check bool) "outside top interval: silent" true
    (decide ~source:0 st (Some far) = None);
  (* Empty left subtree, then a transmission closes the right one. *)
  let st = observe ~source:0 st Channel.Idle 2024 in
  Alcotest.(check bool) "f* advanced past left subtree" true
    (Astring_contains.contains (Step.fingerprint st) "f*=3");
  let st =
    observe ~source:0 st (Channel.Tx { src = 1; tag = 9; on_wire = 1160 }) 3184
  in
  Alcotest.(check string) "TTs over -> attempt" "attempt" (Step.phase_name st);
  Alcotest.(check bool) "reft reset by in-tree tx" true
    (Astring_contains.contains (Step.fingerprint st) "reft=3184")

let test_automaton_sts_path () =
  (* Collide all the way down to time leaf 0, then on the [0,1) leaf:
     static search. *)
  let st = clashes ~source:1 Step.init [ 1000; 1512; 2024; 2536; 3048 ] in
  Alcotest.(check string) "in STs" "sts" (Step.phase_name st);
  (* Source 1 owns static index 1: at the root static interval [0,4) it
     participates if its message is in class <= 0. *)
  let urgent = mk_msg ~uid:2 ~arrival:0 ~deadline:900 () (* idx <= 0 via f*+1 *) in
  (match decide ~source:1 st (Some urgent) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected STs participation");
  (* Static root clash splits into [0,2) and [2,4). *)
  let st = observe ~source:1 st (clash [ (0, 0); (1, 2) ]) 3560 in
  (* Peer alone in [0,2): transmits, interval popped, STs continues. *)
  let st =
    observe ~source:1 st (Channel.Tx { src = 0; tag = 0; on_wire = 1160 }) 4720
  in
  Alcotest.(check string) "still sts" "sts" (Step.phase_name st);
  (* Our transmission closes [2,4): STs completes, back to TTs with the
     colliding time leaf popped and reft reset. *)
  let st =
    observe ~source:1 st (Channel.Tx { src = 1; tag = 2; on_wire = 1160 }) 5880
  in
  Alcotest.(check string) "back in tts" "tts" (Step.phase_name st);
  Alcotest.(check bool) "time leaf popped, f*=0" true
    (Astring_contains.contains (Step.fingerprint st) "f*=0");
  Alcotest.(check bool) "reft updated at STs completion" true
    (Astring_contains.contains (Step.fingerprint st) "reft=5880")

let test_automaton_static_leaf_collision_rejected () =
  (* Down the time tree to leaf [0,1), then down the static tree under
     repeated clashes: [0,4) then [0,2) then leaf [0,1) — a clash
     there is impossible. *)
  let st =
    clashes ~source:0 Step.init
      [ 1000; 1512; 2024; 2536; 3048; 3560; 4072 ]
  in
  Alcotest.check_raises "static leaf collision"
    (Ddcr.Protocol_violation
       "collision on a static tree leaf: static indices are not disjoint")
    (fun () -> ignore (clashes ~source:0 st [ 4584 ]))

(* --- The decision rule: the deadline band against the paper's formula --- *)

(* The paper's rule, kept here as the reference: a source joins the
   probed time interval [lo, lo+w) iff f(reft, msg) = max(⌊(DM − α −
   reft)/c⌋, f*+1) lies in it and is at most F−1, and the probed static
   interval iff its next own index lies in it and f(reft, msg) is at
   most the colliding time leaf. *)
let paper_f p st (tts : Step.tts) m =
  max
    (Rtnet_util.Int_math.fdiv
       (Message.abs_deadline m - p.Ddcr_params.alpha - st.Step.reft)
       p.Ddcr_params.class_width)
    (tts.Step.f_star + 1)

let paper_decides p ~source st m =
  match st.Step.phase with
  | Step.Free | Step.Attempt -> true
  | Step.Tts tts -> (
    match tts.Step.t_stack with
    | (lo, w) :: _ ->
      let f = paper_f p st tts m in
      f <= p.Ddcr_params.time_leaves - 1 && lo <= f && f < lo + w
    | [] -> false)
  | Step.Sts (sts, tts) -> (
    match sts.Step.s_stack with
    | (lo, w) :: _ ->
      let own = p.Ddcr_params.static_indices.(source) in
      let rank = st.Step.rank in
      rank < Array.length own
      && lo <= own.(rank)
      && own.(rank) < lo + w
      && paper_f p st tts m <= sts.Step.time_leaf
    | [] -> false)

(* Random parameters, states and messages, not only well-formed ones:
   intervals may reach past F, f*+1 may lie inside, below or above the
   probed interval, and DM − α − reft ranges from below zero to past
   c·F. *)
let band_case =
  let open QCheck.Gen in
  let* m = oneofl [ 2; 4 ] in
  let* k = int_range 1 3 in
  let leaves = int_of_float (float_of_int m ** float_of_int k) in
  let* c = int_range 1 3000 in
  let* alpha = int_range 0 3000 in
  let* reft = int_range 0 50_000 in
  let* lo = int_range 0 (leaves + 1) in
  let* w = int_range 1 leaves in
  let* f_star = int_range (-1) (leaves + 1) in
  let* time_leaf = int_range 0 (leaves - 1) in
  let* rank = int_range 0 2 in
  let* own = list_size (int_range 0 2) (int_range 0 (leaves - 1)) in
  let* phase = int_range 0 3 in
  (* Half the offsets sit on or next to a multiple of c, where the
     floor changes. *)
  let* k = int_range (-3) (leaves + 3) in
  let* d = oneof [ return 0; return (c - 1); int_range 0 (c - 1) ] in
  let offset = (k * c) + d in
  let p =
    {
      Ddcr_params.time_m = m;
      time_leaves = leaves;
      class_width = c;
      alpha;
      theta = 0;
      static_m = m;
      static_leaves = leaves;
      static_indices = [| Array.of_list own |];
      burst_bits = 0;
    }
  in
  let tts = { Step.t_stack = [ (lo, w) ]; f_star; sent = false } in
  let phase =
    match phase with
    | 0 -> Step.Free
    | 1 -> Step.Attempt
    | 2 -> Step.Tts tts
    | _ -> Step.Sts ({ Step.s_stack = [ (lo, w) ]; time_leaf }, tts)
  in
  let st = { Step.phase; reft; rank; last_out = false } in
  (* DM − α − reft = offset, with a non-negative arrival. *)
  let dm = alpha + reft + offset in
  let arrival = max 0 (dm - 1) in
  return (p, st, mk_msg ~uid:7 ~arrival ~deadline:(dm - arrival) ())

let prop_band_matches_paper =
  QCheck.Test.make ~name:"decide's deadline band is the paper's f(reft, msg)"
    ~count:2000
    (QCheck.make
       ~print:(fun (p, st, m) ->
         Printf.sprintf "F=%d c=%d alpha=%d [%s] rank=%d DM=%d"
           p.Ddcr_params.time_leaves p.Ddcr_params.class_width
           p.Ddcr_params.alpha (Step.fingerprint st) st.Step.rank
           (Message.abs_deadline m))
       band_case)
    (fun (p, st, m) ->
      match Step.decide p ~source:0 st ~msg_star:(Some m) with
      | Some a ->
        paper_decides p ~source:0 st m
        && a.Channel.att_source = 0
        && a.Channel.att_tag = m.Message.uid
        && a.Channel.att_bits = m.Message.cls.Message.cls_bits
        && a.Channel.att_key = (Message.abs_deadline m, 0)
      | None -> not (paper_decides p ~source:0 st m))

(* --- End-to-end runs --- *)

let test_scenarios_safe_and_feasible () =
  List.iter
    (fun (name, inst) ->
      let params = Ddcr_params.default inst in
      let o = Ddcr.run ~check_lockstep:true ~seed:11 params inst ~horizon:(20 * ms) in
      let m = Run.metrics o in
      if (Feasibility.check params inst).Feasibility.feasible then
        Alcotest.(check int) (name ^ ": no misses when FC holds") 0
          m.Run.deadline_misses)
    Scenarios.all

let test_conservation () =
  let inst = Scenarios.trading ~gateways:3 in
  let horizon = 10 * ms in
  let trace = Instance.trace inst ~seed:5 ~horizon in
  let params = Ddcr_params.default inst in
  let o = Ddcr.run_trace params inst trace ~horizon in
  Alcotest.(check int) "completions + unfinished = arrivals"
    (List.length trace)
    (List.length o.Run.completions + List.length o.Run.unfinished);
  Alcotest.(check int) "ddcr never drops" 0 (List.length o.Run.dropped)

let test_bound_domination_under_adversary () =
  (* The core validation: for FC-feasible instances, every observed
     per-class worst latency is below the implementation bound, even
     under the greedy peak-load adversary. *)
  let check_inst name inst seed =
    let params = Ddcr_params.default inst in
    let report = Feasibility.check params inst in
    Alcotest.(check bool) (name ^ " feasible") true report.Feasibility.feasible;
    let adv = Instance.with_law inst Arrival.Greedy_burst in
    let o = Ddcr.run ~seed params adv ~horizon:(30 * ms) in
    Alcotest.(check int) (name ^ " no misses") 0
      (Run.metrics o).Run.deadline_misses;
    List.iter
      (fun (cls_id, worst) ->
        let c =
          List.find
            (fun c -> c.Message.cls_id = cls_id)
            (Instance.classes adv)
        in
        let bound = Feasibility.latency_bound_impl params adv c in
        Alcotest.(check bool)
          (Printf.sprintf "%s class %d: %d <= %.0f" name cls_id worst bound)
          true
          (float_of_int worst <= bound))
      (Run.per_class_worst_latency o)
  in
  check_inst "videoconference" (Scenarios.videoconference ~stations:5) 3;
  check_inst "atc" (Scenarios.air_traffic_control ~radars:4) 4;
  check_inst "uniform-0.2"
    (Scenarios.uniform ~sources:6 ~classes_per_source:1 ~load:0.2
       ~deadline_windows:3.0)
    5

let test_infeasible_instance_misses_under_adversary () =
  (* Conversely the trading instance violates its FCs and the greedy
     adversary does produce deadline misses. *)
  let inst = Scenarios.trading ~gateways:4 in
  let params = Ddcr_params.default inst in
  Alcotest.(check bool) "FC fails" false
    (Feasibility.check params inst).Feasibility.feasible;
  let adv = Instance.with_law inst Arrival.Greedy_burst in
  let o = Ddcr.run ~seed:7 params adv ~horizon:(30 * ms) in
  Alcotest.(check bool) "misses occur" true
    ((Run.metrics o).Run.deadline_misses > 0)

let test_lockstep_across_seeds () =
  let inst = Scenarios.trading ~gateways:4 in
  let params = Ddcr_params.default inst in
  List.iter
    (fun seed -> ignore (Ddcr.run ~check_lockstep:true ~seed params inst ~horizon:(5 * ms)))
    [ 1; 2; 3; 42 ]

let test_deterministic_replay () =
  let inst = Scenarios.videoconference ~stations:4 in
  let params = Ddcr_params.default inst in
  let o1 = Ddcr.run ~seed:13 params inst ~horizon:(10 * ms) in
  let o2 = Ddcr.run ~seed:13 params inst ~horizon:(10 * ms) in
  let key o =
    List.map (fun c -> (c.Run.c_msg.Message.uid, c.Run.c_start)) o.Run.completions
  in
  Alcotest.(check (list (pair int int))) "identical" (key o1) (key o2)

let test_arbitration_medium () =
  let inst = Scenarios.atm_fabric ~ports:4 in
  let params = Ddcr_params.default inst in
  let o = Ddcr.run ~check_lockstep:true ~seed:2 params inst ~horizon:(2 * ms) in
  let m = Run.metrics o in
  Alcotest.(check bool) "delivers" true (m.Run.delivered > 100);
  Alcotest.(check int) "no misses" 0 m.Run.deadline_misses

let test_compressed_time_speeds_up_far_deadlines () =
  (* Two sources, one far-deadline message each, and a deliberately
     short scheduling horizon cF << d: with θ = 0 the channel cycles
     until the deadlines draw near; compressed time pulls them in. *)
  let phy = Phy.classic_ethernet in
  let mk_cls id src =
    {
      Message.cls_id = id;
      cls_name = "far" ^ string_of_int id;
      cls_source = src;
      cls_bits = 1000;
      cls_deadline = 1_000_000;
      cls_burst = 1;
      cls_window = 2_000_000;
    }
  in
  let inst =
    Instance.create_exn ~name:"far" ~phy ~num_sources:2
      [
        (mk_cls 0 0, Arrival.Periodic { offset = 0 });
        (mk_cls 1 1, Arrival.Periodic { offset = 0 });
      ]
  in
  let base =
    {
      Ddcr_params.time_m = 2;
      time_leaves = 8;
      class_width = 1000;
      alpha = 0;
      theta = 0;
      static_m = 2;
      static_leaves = 4;
      static_indices = [| [| 0 |]; [| 1 |] |];
      burst_bits = 0;
    }
  in
  let finish_of params =
    let o = Ddcr.run ~seed:1 params inst ~horizon:2_000_000 in
    match o.Run.completions with
    | c :: _ -> c.Run.c_finish
    | [] -> Alcotest.fail "nothing delivered"
  in
  let lazy_finish = finish_of base in
  let compressed_finish = finish_of (Ddcr_params.with_theta base 8000) in
  Alcotest.(check bool)
    (Printf.sprintf "compressed %d << lazy %d" compressed_finish lazy_finish)
    true
    (compressed_finish * 2 < lazy_finish)

let test_packet_bursting_rescues_small_frames () =
  (* Section 5: on Gigabit Ethernet, frames near the 4096-bit slot cost
     a full contention slot each; bursting amortizes the acquisition.
     The overloaded 6-gateway trading instance misses deadlines without
     bursting and stops missing with the 802.3z burst limit. *)
  let inst = Scenarios.trading ~gateways:6 in
  let horizon = 30 * ms in
  let trace = Instance.trace inst ~seed:3 ~horizon in
  let base = Ddcr_params.default inst in
  let plain = Run.metrics (Ddcr.run_trace base inst trace ~horizon) in
  let burst =
    Run.metrics
      (Ddcr.run_trace (Ddcr_params.with_burst base 65_536) inst trace ~horizon)
  in
  Alcotest.(check bool) "plain overloaded" true (plain.Run.deadline_misses > 0);
  Alcotest.(check int) "bursting rescues" 0 burst.Run.deadline_misses;
  Alcotest.(check bool) "fewer inversions too" true
    (burst.Run.inversions < plain.Run.inversions)

let test_bursting_preserves_safety_and_conservation () =
  let inst = Scenarios.trading ~gateways:4 in
  let horizon = 10 * ms in
  let trace = Instance.trace inst ~seed:5 ~horizon in
  let p = Ddcr_params.with_burst (Ddcr_params.default inst) 32_768 in
  (* run_trace verifies channel safety internally and raises on
     violation; lockstep is also checked. *)
  let o = Ddcr.run_trace ~check_lockstep:true p inst trace ~horizon in
  Alcotest.(check int) "conservation"
    (List.length trace)
    (List.length o.Run.completions + List.length o.Run.unfinished)

let test_runs_under_every_branching () =
  (* The automaton is branching-degree agnostic: all invariants hold
     under binary, ternary and octal trees. *)
  let inst = Scenarios.trading ~gateways:3 in
  let horizon = 8 * ms in
  let trace = Instance.trace inst ~seed:7 ~horizon in
  List.iter
    (fun m ->
      let params = Ddcr_params.default ~branching:m inst in
      let o = Ddcr.run_trace ~check_lockstep:true params inst trace ~horizon in
      Alcotest.(check int)
        (Printf.sprintf "conservation m=%d" m)
        (List.length trace)
        (List.length o.Run.completions + List.length o.Run.unfinished))
    [ 2; 3; 8 ]

let test_allocation_matters_on_skewed_load () =
  (* E17's behavioural claim: on a skewed workload, localising the
     heavy source's static indices (contiguous blocks) beats spreading
     them round-robin across the tree. *)
  let inst = Scenarios.skewed ~sources:8 ~heavy_fraction:0.7 in
  let horizon = 25 * ms in
  let trace = Instance.trace inst ~seed:4 ~horizon in
  let run alloc =
    Run.metrics
      (Ddcr.run_trace (Ddcr_params.default ~allocation:alloc inst) inst trace
         ~horizon)
  in
  let rr = run Ddcr_params.Round_robin in
  let contig = run Ddcr_params.Contiguous in
  Alcotest.(check bool)
    (Printf.sprintf "contiguous (%d) <= round robin (%d) misses"
       contig.Run.deadline_misses rr.Run.deadline_misses)
    true
    (contig.Run.deadline_misses <= rr.Run.deadline_misses);
  Alcotest.(check bool) "contiguous faster on average" true
    (contig.Run.mean_latency < rr.Run.mean_latency)

let test_edf_service_order_within_source () =
  (* A source's own messages complete in EDF order (LA ranks Q). *)
  let inst = Scenarios.trading ~gateways:2 in
  let params = Ddcr_params.default inst in
  let o = Ddcr.run ~seed:9 params inst ~horizon:(10 * ms) in
  let by_source = Hashtbl.create 4 in
  List.iter
    (fun c ->
      let src = c.Run.c_msg.Message.cls.Message.cls_source in
      let prev = try Hashtbl.find by_source src with Not_found -> [] in
      Hashtbl.replace by_source src (c :: prev))
    o.Run.completions;
  Hashtbl.iter
    (fun _src cs ->
      let cs = List.rev cs in
      let rec ok = function
        | a :: (b :: _ as rest) ->
          (* b must not have been pending with a strictly smaller DM
             when a started. *)
          (b.Run.c_msg.Message.arrival > a.Run.c_start
          || Message.compare_edf a.Run.c_msg b.Run.c_msg < 0)
          && ok rest
        | [ _ ] | [] -> true
      in
      Alcotest.(check bool) "per-source EDF order" true (ok cs))
    by_source

(* Minor words a run allocates per resolved slot, and its outcome.
   Without faults the shared replica step is evaluated once per slot,
   however many stations hold a replica, so this grows with the station
   count only through the slot's own attempts. *)
let words_per_slot ?plan inst ~horizon =
  let params = Ddcr_params.default inst in
  let trace = Instance.trace inst ~seed:1 ~horizon in
  let before = Gc.minor_words () in
  let o = Ddcr.run_trace ?plan params inst trace ~horizon in
  let words = Gc.minor_words () -. before in
  match o.Run.channel with
  | Some st ->
    ( words
      /. float_of_int
           (st.Channel.idle_slots + st.Channel.collision_slots
          + st.Channel.tx_count + st.Channel.garbled_count),
      o )
  | None -> Alcotest.fail "no channel statistics"

let minor_words_per_slot ~sources =
  let inst =
    Scenarios.uniform ~sources ~classes_per_source:2 ~load:0.8
      ~deadline_windows:2.0
  in
  fst (words_per_slot inst ~horizon:(20 * ms))

let test_allocation_flat_in_stations () =
  let small = minor_words_per_slot ~sources:4
  and large = minor_words_per_slot ~sources:64 in
  Alcotest.(check bool)
    (Printf.sprintf "64 stations allocate %.1f <= 1.5 x %.1f words per slot"
       large small)
    true
    (large <= 1.5 *. small)

(* Absolute pin on the dense bus: what is left per slot is the per
   message work (queue node, completion, attempt, carried frame) and
   the one immutable protocol state a slot reaches. *)
let test_allocation_pinned () =
  let words = minor_words_per_slot ~sources:16 in
  Alcotest.(check bool)
    (Printf.sprintf "16 stations allocate %.1f <= 90 words per slot" words)
    true (words <= 90.)

(* --- The slot pinned at scale: outcome digests of whole runs --- *)

(* Completions with their start and finish, the unfinished and dropped
   counts, and under a plan every per-source fault counter and the
   fault epochs. *)
let outcome_digest (o : Run.outcome) =
  let b = Buffer.create 65536 in
  List.iter
    (fun c ->
      Printf.bprintf b "%d:%d:%d;" c.Run.c_msg.Message.uid c.Run.c_start
        c.Run.c_finish)
    o.Run.completions;
  Printf.bprintf b "|%d|%d" (List.length o.Run.unfinished)
    (List.length o.Run.dropped);
  (match o.Run.faults with
  | None -> ()
  | Some f ->
    List.iter
      (fun sf ->
        Printf.bprintf b "|%d:%d:%d:%d:%d:%d" sf.Run.sf_source
          sf.Run.sf_crashed_slots sf.Run.sf_missed sf.Run.sf_misperceived
          sf.Run.sf_desync_slots sf.Run.sf_resyncs)
      f.Run.f_per_source;
    List.iter (fun (s, e) -> Printf.bprintf b "[%d,%d)" s e) f.Run.f_epochs);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The benchmark's dense bus: 16 stations under the staggered greedy
   adversary, the phase drawn from the seed. *)
let dense_instance ~seed =
  let base =
    Scenarios.uniform ~sources:16 ~classes_per_source:2 ~load:0.8
      ~deadline_windows:2.0
  in
  let phase = Rtnet_util.Prng.float (Rtnet_util.Prng.create seed) (1. /. 16.) in
  Instance.with_law base (Arrival.Staggered_burst { phase })

let pinned_digest ?plan inst ~horizon =
  let trace = Instance.trace inst ~seed:1 ~horizon in
  outcome_digest
    (Ddcr.run_trace ?plan (Ddcr_params.default inst) inst trace ~horizon)

let test_pinned_dense () =
  Alcotest.(check string) "dense, 16 stations, 20 ms"
    "e8b3a39beb7ddf0a9afdb61b3da7ff27"
    (pinned_digest (dense_instance ~seed:1) ~horizon:(20 * ms))

module Fault_plan = Rtnet_channel.Fault_plan

(* The same classes and arrivals with four times the deadline, under
   misperception, i.i.d. garbling and one 50 µs crash window: the
   benchmark's faulty bus. *)
let faulty_instance () = Instance.scale_deadlines (dense_instance ~seed:1) 4.0

let faulty_plan ~horizon =
  Fault_plan.create ~horizon ~seed:1
    (Fault_plan.merge
       [
         Fault_plan.misperceive 0.001;
         Fault_plan.iid 0.002;
         Fault_plan.crash
           ~source:(Rtnet_util.Prng.int (Rtnet_util.Prng.create 2) 16)
           ~from_:(horizon / 4)
           ~until:((horizon / 4) + 50_000);
       ])

let test_pinned_faulty () =
  let horizon = 20 * ms in
  Alcotest.(check string) "dense under faults, 16 stations, 20 ms"
    "d024e8e1978df3249fb1447885fd222e"
    (pinned_digest ~plan:(faulty_plan ~horizon) (faulty_instance ()) ~horizon)

(* An empty plan allocates what no plan allocates: its queries (one
   liveness check and no draw per station) build nothing. *)
let test_allocation_empty_plan () =
  let horizon = 20 * ms and inst = faulty_instance () in
  let bare, o_bare = words_per_slot inst ~horizon in
  let empty, o_empty =
    words_per_slot ~plan:(Fault_plan.create ~horizon ~seed:1 Fault_plan.none)
      inst ~horizon
  in
  Alcotest.(check bool)
    (Printf.sprintf "empty plan %.1f <= %.1f + 1 words per slot" empty bare)
    true
    (empty <= bare +. 1.);
  Alcotest.(check string) "same completions"
    (outcome_digest { o_bare with Run.faults = None })
    (outcome_digest { o_empty with Run.faults = None })

(* The faulted slot adds only fault handling: the per-station draws
   and queries allocate nothing. *)
let test_allocation_faulted () =
  let horizon = 20 * ms in
  let words, _ =
    words_per_slot ~plan:(faulty_plan ~horizon) (faulty_instance ()) ~horizon
  in
  Alcotest.(check bool)
    (Printf.sprintf "faulty plan allocates %.1f <= 100 words per slot" words)
    true (words <= 100.)

let test_pinned_64_stations () =
  Alcotest.(check string) "uniform, 64 stations, 20 ms"
    "ce52722f1e9585fa41b4a35810607531"
    (pinned_digest
       (Scenarios.uniform ~sources:64 ~classes_per_source:2 ~load:0.8
          ~deadline_windows:2.0)
       ~horizon:(20 * ms))

let suite =
  [
    ( "ddcr",
      [
        Alcotest.test_case "automaton free phase" `Quick test_automaton_free_phase;
        Alcotest.test_case "automaton tts walk" `Quick test_automaton_tts_walk;
        Alcotest.test_case "automaton sts path" `Quick test_automaton_sts_path;
        Alcotest.test_case "automaton static leaf rejected" `Quick
          test_automaton_static_leaf_collision_rejected;
        QCheck_alcotest.to_alcotest prop_band_matches_paper;
        Alcotest.test_case "scenarios safe" `Slow test_scenarios_safe_and_feasible;
        Alcotest.test_case "conservation" `Quick test_conservation;
        Alcotest.test_case "bound domination" `Slow
          test_bound_domination_under_adversary;
        Alcotest.test_case "infeasible misses" `Slow
          test_infeasible_instance_misses_under_adversary;
        Alcotest.test_case "lockstep" `Slow test_lockstep_across_seeds;
        Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        Alcotest.test_case "arbitration medium" `Quick test_arbitration_medium;
        Alcotest.test_case "compressed time" `Quick
          test_compressed_time_speeds_up_far_deadlines;
        Alcotest.test_case "packet bursting rescues" `Slow
          test_packet_bursting_rescues_small_frames;
        Alcotest.test_case "bursting safe" `Quick
          test_bursting_preserves_safety_and_conservation;
        Alcotest.test_case "every branching degree" `Quick
          test_runs_under_every_branching;
        Alcotest.test_case "allocation on skewed load" `Slow
          test_allocation_matters_on_skewed_load;
        Alcotest.test_case "per-source EDF order" `Quick
          test_edf_service_order_within_source;
        Alcotest.test_case "slot allocation flat in stations" `Quick
          test_allocation_flat_in_stations;
        Alcotest.test_case "slot allocation pinned at 16 stations" `Quick
          test_allocation_pinned;
        Alcotest.test_case "empty plan allocates what no plan does" `Quick
          test_allocation_empty_plan;
        Alcotest.test_case "faulted slot allocation pinned" `Quick
          test_allocation_faulted;
        Alcotest.test_case "dense outcome pinned" `Quick test_pinned_dense;
        Alcotest.test_case "dense outcome under faults pinned" `Quick
          test_pinned_faulty;
        Alcotest.test_case "64-station outcome pinned" `Quick
          test_pinned_64_stations;
      ] );
  ]
