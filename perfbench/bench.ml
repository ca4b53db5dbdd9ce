(* The layered benchmark: four closed-loop workloads with one caller,
   timed from outside through public functions.

     bench.exe --workload dense|faulty|churn|federation --seed N
               --seconds S --trace 0|1 [--size full|tiny]
     bench.exe --calibrate

   With [--trace 0] it prints the end-to-end metrics, with [--trace 1]
   the per-layer ones; the last line of standard output is one JSON
   object {correct, attempted, failed, metrics}.  Every timing is
   normalised to the calibration kernel (see Calib) and reported as a
   median over repetitions.  Any correctness violation prints the
   result with "correct": false and exits 1.  perfbench/README.md maps
   every metric to its layer and end-to-end effect. *)

module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Arrival = Rtnet_workload.Arrival
module Scenarios = Rtnet_workload.Scenarios
module Edf_queue = Rtnet_edf.Edf_queue
module Run = Rtnet_stats.Run
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Multi_tree = Rtnet_core.Multi_tree
module Decompose = Rtnet_core.Decompose
module Sink = Rtnet_telemetry.Sink
module Engine = Rtnet_admit.Engine
module Request = Rtnet_admit.Request
module Journal = Rtnet_admit.Journal
module Service = Rtnet_admit.Service
module Topo = Rtnet_topology.Topo
module Admit = Rtnet_topology.Admit
module Bridge = Rtnet_topology.Bridge
module Driver = Rtnet_topology.Driver
module Prng = Rtnet_util.Prng
module Samples = Calib.Samples

(* ------------------------------------------------------------------ *)
(* Sizes                                                               *)

type sizes = {
  dense_horizon : int;  (** bit-times simulated per dense repetition *)
  faulty_horizon : int;
  churn_requests : int;  (** requests per churn repetition *)
  churn_sim_horizon : int;  (** closing simulation of the admitted set *)
  fed_segments : int;
  fed_horizon : int;
  setup_reps : int;
  min_reps : int;
  min_batch_s : float;  (** shortest span one timing may cover *)
  min_samples : int;  (** decision latencies the percentiles rest on *)
}

let full =
  {
    dense_horizon = 400_000_000;
    faulty_horizon = 24_000_000;
    churn_requests = 20_000;
    churn_sim_horizon = 360_000_000;
    fed_segments = 121;
    fed_horizon = 10_000_000;
    setup_reps = 5;
    min_reps = 3;
    min_batch_s = 0.1;
    min_samples = 100_000;
  }

let tiny =
  {
    dense_horizon = 400_000;
    faulty_horizon = 200_000;
    churn_requests = 400;
    churn_sim_horizon = 2_000_000;
    fed_segments = 13;
    fed_horizon = 1_000_000;
    setup_reps = 1;
    min_reps = 1;
    min_batch_s = 0.005;
    min_samples = 0;
  }

let sz = ref full

(* ------------------------------------------------------------------ *)
(* Correctness bookkeeping                                             *)

let violations = ref []
let check cond msg = if not cond then violations := msg :: !violations

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

(* Every repetition of a seed must reproduce the first one's digest. *)
let same_digest = ref None

let check_digest d =
  match !same_digest with
  | None -> same_digest := Some d
  | Some d0 -> check (String.equal d d0) "repetitions of one seed disagree"

(* ------------------------------------------------------------------ *)
(* Results of one repetition                                           *)

type rep_out = {
  ops : int;  (** operations attempted *)
  failed : int;
  slots : int;  (** channel slots resolved by the simulate call *)
  slot_s : float;  (** its normalised seconds *)
  decisions : int;
  decision_s : float;  (** normalised seconds of the deciding call *)
  raw_s : float;  (** raw seconds of the repetition's timed calls *)
}

(* A flat float record: updating it does not allocate. *)
type clock = { mutable last : float }

let slots_of (o : Run.outcome) =
  match o.Run.channel with
  | Some s ->
    s.Channel.idle_slots + s.Channel.collision_slots + s.Channel.tx_count
    + s.Channel.garbled_count
  | None -> 0

(* Deadline misses, split as the trace checker splits them: a miss
   whose lifetime [min(T, DM), finish) overlaps a fault epoch is
   degradation (excused), any other is a timeliness violation. *)
let misses (o : Run.outcome) =
  let epochs =
    match o.Run.faults with Some f -> f.Run.f_epochs | None -> []
  in
  let excused ~t0 ~dm ~finish =
    let lo = min t0 dm in
    List.exists (fun (s, e) -> s < finish && lo < e) epochs
  in
  let tally (exc, unexc) (m : Message.t) ~finish =
    if excused ~t0:m.Message.arrival ~dm:(Message.abs_deadline m) ~finish then
      (exc + 1, unexc)
    else (exc, unexc + 1)
  in
  let acc =
    List.fold_left
      (fun acc (c : Run.completion) ->
        if Run.missed c then tally acc c.Run.c_msg ~finish:c.Run.c_finish else acc)
      (0, 0) o.Run.completions
  in
  let acc =
    List.fold_left
      (fun acc m ->
        if Message.abs_deadline m <= o.Run.horizon then tally acc m ~finish:o.Run.horizon
        else acc)
      acc o.Run.unfinished
  in
  List.fold_left (fun acc m -> tally acc m ~finish:o.Run.horizon) acc o.Run.dropped

let unexcused o = snd (misses o)

let outcome_digest (o : Run.outcome) =
  let b = Buffer.create 65536 in
  List.iter
    (fun (c : Run.completion) ->
      Printf.bprintf b "%d:%d:%d;" c.Run.c_msg.Message.uid c.Run.c_start
        c.Run.c_finish)
    o.Run.completions;
  Printf.bprintf b "|%d|%d" (List.length o.Run.unfinished)
    (List.length o.Run.dropped);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* delivered + unfinished + dropped = messages in the trace. *)
let check_conservation (o : Run.outcome) ~messages =
  let n =
    List.length o.Run.completions
    + List.length o.Run.unfinished
    + List.length o.Run.dropped
  in
  check (n = messages)
    (Printf.sprintf "message conservation: %d accounted of %d" n messages)

(* ------------------------------------------------------------------ *)
(* Bus workloads: dense and faulty                                     *)

type bus = {
  b_params : Ddcr_params.t;
  b_inst : Instance.t;
  b_trace : Message.t list;
  b_messages : int;
  b_plan : Fault_plan.spec option;
  b_seed : int;
  b_horizon : int;
}

(* Scenarios.uniform under the greedy adversary: every class bursts at
   the start of each window.  The adversary is deterministic, so the
   seed only shifts all bursts by one common phase (< 1/16 window):
   the trace moves, its contention pattern does not. *)
let dense_instance ~seed =
  let base =
    Scenarios.uniform ~sources:16 ~classes_per_source:2 ~load:0.8
      ~deadline_windows:2.0
  in
  let phase = Prng.float (Prng.create seed) (1. /. 16.) in
  Instance.with_law base (Arrival.Staggered_burst { phase })

(* Misperception ∘ i.i.d. garbling ∘ one 50 µs crash window of one
   station, a quarter into the horizon. *)
let faulty_plan ~seed ~horizon =
  let src = Prng.int (Prng.create (seed + 1)) 16 in
  Fault_plan.merge
    [
      Fault_plan.misperceive 0.001;
      Fault_plan.iid 0.002;
      Fault_plan.crash ~source:src ~from_:(horizon / 4)
        ~until:((horizon / 4) + 50_000);
    ]

let bus_setup ~faulty ~seed () =
  let horizon = if faulty then !sz.faulty_horizon else !sz.dense_horizon in
  (* On the tight dense instance any fault leaves a backlog that
     outlives its epoch and misses later deadlines; faulty keeps the
     same classes and arrivals with four times the deadline, so
     recovery fits and every miss the plan causes is excused. *)
  let inst = dense_instance ~seed in
  let inst = if faulty then Instance.scale_deadlines inst 4.0 else inst in
  let trace = Instance.trace inst ~seed ~horizon in
  {
    b_params = Ddcr_params.default inst;
    b_inst = inst;
    b_trace = trace;
    b_messages = List.length trace;
    b_plan = (if faulty then Some (faulty_plan ~seed ~horizon) else None);
    b_seed = seed;
    b_horizon = horizon;
  }

let plan_of b =
  Option.map (Fault_plan.create ~horizon:b.b_horizon ~seed:b.b_seed) b.b_plan

(* One simulate call.  A decision is one channel-access decision (a
   slot): its latency is the wall time between consecutive slot
   boundaries, taken from the harness's per-slot [inject] poll, which
   returns nothing. *)
let bus_rep b ~factor ~lat =
  let plan = plan_of b in
  let clk = { last = 0. } in
  let inject ~now:_ =
    let t = Calib.now () in
    if clk.last > 0. then Samples.add lat ((t -. clk.last) *. factor);
    clk.last <- t;
    []
  in
  let t0 = Calib.now () in
  let o =
    Ddcr.run_trace ?plan ~inject b.b_params b.b_inst b.b_trace
      ~horizon:b.b_horizon
  in
  let raw = Calib.now () -. t0 in
  check_digest (outcome_digest o);
  check_conservation o ~messages:b.b_messages;
  let slots = slots_of o in
  {
    ops = b.b_messages;
    failed = unexcused o;
    slots;
    slot_s = raw *. factor;
    decisions = slots;
    decision_s = raw *. factor;
    raw_s = raw;
  }

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)

let tmp_dir = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Requests per timed chunk: a multiple of the self-check cadence, so
   every chunk carries the same number of self-checks.  Short chunks
   keep the calibration kernel timed before each one representative of
   the machine while it runs. *)
let chunk = 2048

let rec chunks l =
  if l = [] then []
  else
    let rec take n acc = function
      | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take chunk [] l in
    c :: chunks rest

type churn = {
  c_trace : Request.trace;
  c_chunks : Request.t list list;
  c_n : int;
  c_hash : string;
  c_seed : int;
}

let churn_setup ~seed () =
  let reqs = Churn_gen.requests ~seed ~n:!sz.churn_requests in
  let trace =
    {
      Request.tr_phy = Churn_gen.phy;
      tr_sources = Churn_gen.sources;
      tr_params = Churn_gen.params;
      tr_requests = reqs;
    }
  in
  {
    c_trace = trace;
    c_chunks = chunks reqs;
    c_n = List.length reqs;
    c_hash = Request.trace_hash trace;
    c_seed = seed;
  }

let journal_path () = Filename.concat tmp_dir "churn.wal"

let new_engine () =
  ok_exn "engine"
    (Engine.create ~phy:Churn_gen.phy ~num_sources:Churn_gen.sources
       ~params:Churn_gen.params)

type service_run = {
  sr_engine : Engine.t;
  sr_norm_s : float;  (** normalised seconds inside [Service.run] *)
  sr_raw_s : float;
  sr_failed : int;
  sr_minor : float;  (** minor words allocated inside [Service.run] *)
  sr_append_s : float;  (** normalised seconds inside [Journal.append] *)
}

(* The whole stream through [Service.run] with a real journal, one
   calibrated call per chunk of one engine ([~start] carries the
   absolute index, so the decisions are those of a single call).  A
   decision's latency is the wall time between consecutive journal
   callbacks; with [~time_appends] the time inside [Journal.append] is
   summed too. *)
let run_service ?(time_appends = false) c ~lat =
  let eng = new_engine () in
  let w = ok_exn "journal" (Journal.create ~path:(journal_path ()) ~trace_hash:c.c_hash) in
  let clk = { last = 0. } and fac = { last = 1. } and app = { last = 0. } in
  let h = ref 0 in
  let journal (r : Journal.record) =
    let t = Calib.now () in
    Samples.add lat ((t -. clk.last) *. fac.last);
    clk.last <- t;
    Journal.append w r;
    if time_appends then app.last <- app.last +. ((Calib.now () -. t) *. fac.last);
    h := ((!h * 31) + Hashtbl.hash (Engine.decision_code r.Journal.jr_decision)) land max_int
  in
  let norm = ref 0. and raw = ref 0. and minor = ref 0. in
  let accepted = ref 0 and processed = ref 0 and overloaded = ref 0 in
  let mismatch = ref None in
  List.iteri
    (fun k reqs ->
      let sm, r =
        Calib.repeat (fun ~factor ->
            fac.last <- factor;
            let m0 = Gc.minor_words () in
            clk.last <- Calib.now ();
            let sm = Service.run ~journal Service.default eng ~start:(k * chunk) reqs in
            minor := !minor +. (Gc.minor_words () -. m0);
            sm)
      in
      norm := !norm +. Calib.norm r;
      raw := !raw +. r.Calib.raw;
      accepted := !accepted + sm.Service.sm_accepted;
      processed := !processed + sm.Service.sm_processed;
      overloaded :=
        !overloaded
        + Option.value ~default:0 (List.assoc_opt "overloaded" sm.Service.sm_rejected);
      if !mismatch = None then mismatch := sm.Service.sm_mismatch)
    c.c_chunks;
  Journal.close w;
  check (!mismatch = None) "service self-check mismatch";
  check (Engine.selfcheck eng = Ok ()) "final Engine.selfcheck failed";
  check (!processed = c.c_n) "service skipped requests";
  check_digest
    (Digest.to_hex
       (Digest.string (Printf.sprintf "%d/%d/%d" !accepted !h (Engine.size eng))));
  {
    sr_engine = eng;
    sr_norm_s = !norm;
    sr_raw_s = !raw;
    sr_failed = (!overloaded + if !mismatch = None then 0 else 1);
    sr_minor = !minor;
    sr_append_s = app.last;
  }

(* Closing check: the admitted set, simulated over a short horizon
   under the greedy adversary (every flow bursts at each window start),
   meets every deadline. *)
let admitted_sim eng ~seed =
  let inst =
    Instance.with_law (ok_exn "admitted set" (Engine.instance eng)) Arrival.Greedy_burst
  in
  let horizon = !sz.churn_sim_horizon in
  let trace = Instance.trace inst ~seed ~horizon in
  {
    b_params = Engine.params eng;
    b_inst = inst;
    b_trace = trace;
    b_messages = List.length trace;
    b_plan = None;
    b_seed = seed;
    b_horizon = horizon;
  }

(* The service chunks and the closing simulations each run under their
   own kernel, so the repetition's own [factor] is not used. *)
let churn_rep c ~factor:_ ~lat =
  let sr = run_service c ~lat in
  let b = admitted_sim sr.sr_engine ~seed:c.c_seed in
  (* Three calibrated simulations; the median time counts. *)
  let sims =
    List.init 3 (fun _ ->
        Calib.repeat (fun ~factor:_ ->
            Ddcr.run_trace b.b_params b.b_inst b.b_trace ~horizon:b.b_horizon))
  in
  let o = fst (List.hd sims) in
  check_conservation o ~messages:b.b_messages;
  check (unexcused o = 0) "an admitted flow missed a deadline";
  {
    ops = c.c_n;
    failed = sr.sr_failed;
    slots = slots_of o;
    slot_s = Calib.median (List.map (fun (_, r) -> Calib.norm r) sims);
    decisions = c.c_n;
    decision_s = sr.sr_norm_s;
    raw_s = sr.sr_raw_s;
  }

(* ------------------------------------------------------------------ *)
(* Federation                                                          *)

type fed = { f_e : Admit.t; f_seed : int }

(* A 121-segment ternary tree; every non-root segment routes one flow
   to the root.  The root carries all 120 forwarded flows, so the tree
   is admitted only at a low per-segment load (at 0.3 most chains
   fail).  Deadlines of one window (~7 ms) end inside the horizon, so
   the miss check applies to every first-window chain. *)
let fed_topo () =
  Topo.tree ~name:"perfbench" ~segments:!sz.fed_segments ~fanout:3 ~sources:4
    ~load:0.01 ~deadline_windows:1.0 ()

let fed_elaborate topo =
  ok_exn "elaborate" (Admit.elaborate ~policy:Decompose.Slack_weighted topo)

let fed_bridges e =
  let vs = Bridge.check e in
  check
    (List.for_all (fun v -> v.Bridge.bv_feasible) vs)
    "a bridge queue is not schedulable"

let fed_setup ~seed () =
  let e = fed_elaborate (fed_topo ()) in
  fed_bridges e;
  check e.Admit.e_admitted "the federation is not admitted";
  { f_e = e; f_seed = seed }

(* Chains: met + missed + in flight + shed + dropped = opened. *)
let fed_verdict (r : Driver.result) =
  let v = r.Driver.r_verdict in
  let drops = List.length v.Driver.v_bridge_drops in
  let missed = List.length v.Driver.v_misses in
  check
    (v.Driver.v_met + missed + v.Driver.v_in_flight + v.Driver.v_shed + drops
    = v.Driver.v_messages)
    "chain conservation";
  check_digest r.Driver.r_fingerprint;
  (v.Driver.v_messages, missed + v.Driver.v_shed + drops)

(* A decision is a slot, as on the single bus; its latency comes from
   the per-segment slot probe (consecutive probes of one segment). *)
let fed_rep f ~factor ~lat =
  let clk = { last = 0. } and seg = ref (-1) in
  let n0 = Samples.length lat in
  let sink_for ~index ~segment:_ =
    Sink.create
      ~slot:(fun ~now:_ ~next_free:_ ~resolution:_ ->
        let t = Calib.now () in
        if !seg = index then Samples.add lat ((t -. clk.last) *. factor);
        seg := index;
        clk.last <- t)
      ()
  in
  let t0 = Calib.now () in
  let r =
    ok_exn "driver"
      (Driver.run_seeded ~domains:1 ~sink_for f.f_e ~seed:f.f_seed
         ~horizon:!sz.fed_horizon)
  in
  let raw = Calib.now () -. t0 in
  let ops, failed = fed_verdict r in
  let slots = slots_of r.Driver.r_outcome in
  {
    ops;
    failed;
    slots;
    slot_s = raw *. factor;
    decisions = Samples.length lat - n0;
    decision_s = raw *. factor;
    raw_s = raw;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~attempted ~failed metrics =
  let correct = !violations = [] in
  List.iter (fun v -> Printf.eprintf "perfbench: violation: %s\n" v) !violations;
  let ms =
    List.map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt_num v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 attempted) failed (String.concat ", " ms);
  if not correct then exit 1

let print_audit ~setup ~reps =
  let fl xs = String.concat ", " (List.map (Printf.sprintf "%.6f") xs) in
  Printf.printf
    "audit: {\"reference_kernel_ms\": %.3f, \"kernel_ms\": [%s], \"setup_raw_s\": [%s], \"rep_raw_s\": [%s]}\n"
    (Calib.reference_kernel_s *. 1e3)
    (fl (List.rev_map (fun k -> k *. 1e3) !Calib.kernel_log))
    (fl setup) (fl reps)

(* ------------------------------------------------------------------ *)
(* The untraced run: end-to-end metrics                                *)

(* Set-up time: each timing covers at least [min_batch_s] (short
   set-ups are batched), normalised, median over [setup_reps]. *)
let time_setup setup =
  let first = Calib.now () in
  let v = setup () in
  let one = Calib.now () -. first in
  let batch = max 1 (int_of_float (Float.ceil (!sz.min_batch_s /. Float.max one 1e-6))) in
  let samples =
    List.init !sz.setup_reps (fun _ ->
        let (), r =
          Calib.repeat (fun ~factor:_ ->
              for _ = 1 to batch do
                ignore (Sys.opaque_identity (setup ()))
              done)
        in
        (Calib.norm r /. float_of_int batch, r.Calib.raw /. float_of_int batch))
  in
  (v, List.map fst samples, List.map snd samples)

let end_to_end ~seconds ~setup ~rep =
  let inputs, setup_s, setup_raw = time_setup setup in
  let lat = Samples.create () in
  (* Warm-up: caches fill and lazy set-up finishes before timing. *)
  ignore (Calib.repeat (fun ~factor -> rep inputs ~factor ~lat));
  (* Measure for [seconds]; extend (up to 2.5x) while the percentiles
     rest on fewer than [min_samples] latencies.  Percentiles are taken
     per repetition and reported as medians over repetitions: pooled,
     the repetitions that ran in the machine's slow phases would own the
     tail. *)
  let start = Calib.now () and samples = ref 0 in
  let rec loop acc n =
    let elapsed = Calib.now () -. start in
    if
      n >= !sz.min_reps && elapsed >= seconds
      && (!samples >= !sz.min_samples || elapsed >= 2.5 *. seconds)
    then List.rev acc
    else begin
      Samples.reset lat;
      let r, _ = Calib.repeat (fun ~factor -> rep inputs ~factor ~lat) in
      samples := !samples + Samples.length lat;
      loop ((r, Samples.quantile lat 0.5, Samples.quantile lat 0.99) :: acc) (n + 1)
    end
  in
  let reps = loop [] 0 in
  let per f = Calib.median (List.map f reps) in
  let heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.
  in
  print_audit ~setup:setup_raw ~reps:(List.map (fun (r, _, _) -> r.raw_s) reps);
  print_result
    ~attempted:(List.fold_left (fun a (r, _, _) -> a + r.ops) 0 reps)
    ~failed:(List.fold_left (fun a (r, _, _) -> a + r.failed) 0 reps)
    [
      ("setup_s", Calib.median setup_s, "s");
      ("slots_per_s", per (fun (r, _, _) -> float_of_int r.slots /. r.slot_s), "1/s");
      ( "decisions_per_s",
        per (fun (r, _, _) -> float_of_int r.decisions /. r.decision_s),
        "1/s" );
      ("decision_p50_us", per (fun (_, p50, _) -> p50) *. 1e6, "us");
      ("decision_p99_us", per (fun (_, _, p99) -> p99) *. 1e6, "us");
      ("heap_peak_mb", heap_mb, "MB");
    ]

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics                                   *)

(* Every per-layer metric, in print order, with its unit.  A workload
   that does not exercise a layer reports 0 for it. *)
let layer_names =
  [
    ("harness.slot_ns.idle", "ns");
    ("harness.slot_ns.collision", "ns");
    ("harness.slot_ns.tx", "ns");
    ("harness.slot_ns.garbled", "ns");
    ("harness.slots", "count");
    ("harness.tail_share", "ratio");
    ("harness.analyze_share", "ratio");
    ("harness.minor_words_per_slot", "words");
    ("harness.misperceived", "count");
    ("harness.excused_misses", "count");
    ("step.observe_ns", "ns");
    ("step.fingerprint_ns", "ns");
    ("edf.insert_pop_ns", "ns");
    ("edf.max_depth", "count");
    ("fault_plan.alive_ns", "ns");
    ("fault_plan.misperceives_ns", "ns");
    ("ddcr.desync_slots", "count");
    ("ddcr.recoveries", "count");
    ("engine.decide_us", "us");
    ("engine.selfcheck_ms", "ms");
    ("journal.append_us", "us");
    ("engine.s1_hit_ratio", "ratio");
    ("engine.s1_lookups", "count");
    ("engine.resident_flows", "count");
    ("churn.trace_hash_ms", "ms");
    ("gc.minor_words_per_decision", "words");
    ("feasibility.check_ms", "ms");
    ("multi_tree.bound_ns", "ns");
    ("topo.elaborate_ms", "ms");
    ("bridge.check_ms", "ms");
    ("driver.slot_loop_s", "s");
    ("driver.outside_s", "s");
    ("driver.injected_msgs", "count");
    ("driver.chains", "count");
    ("unattributed_share", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("calib.kernel_ms", "ms");
  ]

let layer : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace layer name v

(* [per_call n f]: [f ()] performs [n] operations; it is batched so one
   timing covers at least half of [min_batch_s], and the median over
   five calibrated batches is returned as normalised seconds per
   operation. *)
let per_call n f =
  let t0 = Calib.now () in
  f ();
  let one = Calib.now () -. t0 in
  let batch_s = !sz.min_batch_s /. 2. in
  let k = max 1 (int_of_float (Float.ceil (batch_s /. Float.max one 1e-7))) in
  Calib.median
    (List.init 5 (fun _ ->
         let (), r =
           Calib.repeat (fun ~factor:_ ->
               for _ = 1 to k do
                 f ()
               done)
         in
         Calib.norm r /. float_of_int (k * max 1 n)))

let kind = function
  | Channel.Idle -> 0
  | Channel.Clash _ -> 1
  | Channel.Tx _ -> 2
  | Channel.Garbled _ -> 3

(* Slot probes of one traced simulate call: wall time from one slot's
   resolution to the next one's (bucketed by the first), the span from
   a segment's first probe to its last, the recorded slot stream for
   the replays, and per-station queue depths. *)
type probe = {
  p_sum : float array;  (** seconds per resolution kind *)
  p_cnt : int array;
  mutable p_last : float;
  mutable p_first : float;
  mutable p_seg : int;
  mutable p_loop_s : float;  (** Σ over segments of first-to-last probe span *)
  mutable p_stream : (int * Channel.resolution * int) list;
  mutable p_streams : (Ddcr_params.t * (int * Channel.resolution * int) array) list;
  p_depth : (int, int) Hashtbl.t;
  mutable p_max_depth : int;
  mutable p_last_kind : int;
}

let new_probe () =
  {
    p_sum = Array.make 4 0.;
    p_cnt = Array.make 4 0;
    p_last = 0.;
    p_first = 0.;
    p_seg = -1;
    p_loop_s = 0.;
    p_stream = [];
    p_streams = [];
    p_depth = Hashtbl.create 64;
    p_max_depth = 0;
    p_last_kind = 0;
  }

let close_segment p params =
  if p.p_seg >= 0 then begin
    p.p_loop_s <- p.p_loop_s +. (p.p_last -. p.p_first);
    p.p_streams <- (params, Array.of_list (List.rev p.p_stream)) :: p.p_streams;
    p.p_stream <- []
  end

(* A probe sink for segment [index]; [params_of index] gives the
   protocol parameters its stream replays under. *)
let probe_sink p ~index ~params_of =
  let depth src d =
    let v = d + Option.value ~default:0 (Hashtbl.find_opt p.p_depth src) in
    Hashtbl.replace p.p_depth src v;
    if v > p.p_max_depth then p.p_max_depth <- v
  in
  Sink.create
    ~slot:(fun ~now ~next_free ~resolution ->
      let t = Calib.now () in
      if p.p_seg <> index then begin
        if p.p_seg >= 0 then close_segment p (params_of p.p_seg);
        p.p_seg <- index;
        p.p_first <- t;
        Hashtbl.reset p.p_depth
      end
      else begin
        let k = p.p_last_kind in
        p.p_sum.(k) <- p.p_sum.(k) +. (t -. p.p_last);
        p.p_cnt.(k) <- p.p_cnt.(k) + 1
      end;
      p.p_last <- t;
      p.p_last_kind <- kind resolution;
      p.p_stream <- (now, resolution, next_free) :: p.p_stream)
    ~enqueue:(fun ~now:_ ~msg -> depth msg.Message.cls.Message.cls_source 1)
    ~complete:(fun ~msg ~start:_ ~finish:_ -> depth msg.Message.cls.Message.cls_source (-1))
    ~drop:(fun ~msg -> depth msg.Message.cls.Message.cls_source (-1))
    ()

let finish_probe p params_of = close_segment p (params_of p.p_seg)

let set_slot_buckets p factor =
  List.iteri
    (fun k name ->
      set ("harness.slot_ns." ^ name)
        (if p.p_cnt.(k) = 0 then 0.
         else p.p_sum.(k) /. float_of_int p.p_cnt.(k) *. factor *. 1e9))
    [ "idle"; "collision"; "tx"; "garbled" ];
  set "harness.slots" (float_of_int (Array.fold_left ( + ) 0 p.p_cnt));
  set "edf.max_depth" (float_of_int p.p_max_depth)

(* Step.observe replayed over the recorded wire stream by one replica
   (station 0).  Under faults a wire-fed replica can meet feedback its
   own history makes inconsistent; it then restarts from [Step.init].
   Also returns every state reached, for the fingerprint timing. *)
let replay_step streams =
  let n = List.fold_left (fun a (_, s) -> a + Array.length s) 0 streams in
  let states = ref [] in
  let pass keep () =
    List.iter
      (fun (params, stream) ->
        let st = ref Ddcr.Step.init in
        Array.iter
          (fun (_, resolution, next_free) ->
            (st :=
               try Ddcr.Step.observe params ~source:0 !st ~resolution ~next_free
               with Ddcr.Protocol_violation _ -> Ddcr.Step.init);
            if keep then states := !st :: !states)
          stream)
      streams
  in
  pass true ();
  let states = Array.of_list !states in
  set "step.observe_ns" (per_call n (pass false) *. 1e9);
  set "step.fingerprint_ns"
    (per_call (Array.length states) (fun () ->
         Array.iter (fun s -> ignore (Sys.opaque_identity (Ddcr.Step.fingerprint s))) states)
    *. 1e9)

(* One insert + one pop on a queue held at the deepest per-station
   depth the traced run reached. *)
let edf_bench p trace =
  let msgs = Array.of_list trace in
  let d = max 1 p.p_max_depth in
  if Array.length msgs > d then begin
    let q0 = Edf_queue.of_list (Array.to_list (Array.sub msgs 0 d)) in
    let n = 20_000 in
    let len = Array.length msgs in
    set "edf.insert_pop_ns"
      (per_call n (fun () ->
           let q = ref q0 in
           for i = 0 to n - 1 do
             match Edf_queue.pop (Edf_queue.insert !q msgs.(i mod len)) with
             | Some (_, q') -> q := q'
             | None -> ()
           done)
      *. 1e9)
  end

let multi_tree_bench params =
  let m = params.Ddcr_params.static_m and t = params.Ddcr_params.static_leaves in
  let n = 200 * 8 in
  set "multi_tree.bound_ns"
    (per_call n (fun () ->
         for u = 0 to 199 do
           for v = 1 to 8 do
             ignore (Sys.opaque_identity (Multi_tree.bound ~m ~t ~u ~v))
           done
         done)
    *. 1e9)

let feasibility_bench pairs =
  set "feasibility.check_ms"
    (per_call (List.length pairs) (fun () ->
         List.iter (fun (p, i) -> ignore (Sys.opaque_identity (Feasibility.check p i))) pairs)
    *. 1e3)

let fault_counts (o : Run.outcome) =
  match o.Run.faults with
  | None -> ()
  | Some f ->
    let sum g = float_of_int (List.fold_left (fun a s -> a + g s) 0 f.Run.f_per_source) in
    set "ddcr.desync_slots" (sum (fun s -> s.Run.sf_desync_slots));
    set "ddcr.recoveries" (sum (fun s -> s.Run.sf_resyncs));
    set "harness.misperceived" (sum (fun s -> s.Run.sf_misperceived))

let fault_plan_bench b p =
  match b.b_plan with
  | None -> ()
  | Some _ ->
    let slots = Array.concat (List.map snd p.p_streams) in
    let z = b.b_inst.Instance.num_sources in
    let n = Array.length slots * z in
    let each f () =
      let plan = Option.get (plan_of b) in
      Array.iter
        (fun (now, _, _) ->
          for s = 0 to z - 1 do
            ignore (Sys.opaque_identity (f plan ~source:s ~now))
          done)
        slots
    in
    set "fault_plan.alive_ns" (per_call n (each Fault_plan.alive) *. 1e9);
    set "fault_plan.misperceives_ns" (per_call n (each Fault_plan.misperceives) *. 1e9)

(* Budget of the traced run's timed rounds (from --seconds). *)
let rounds_deadline = ref 0.

(* [rounds f] runs [f ()] at least three times and until the budget
   (shared by the traced run's round loops) is spent. *)
let rounds f =
  let rec go acc n =
    if n >= 3 && Calib.now () >= !rounds_deadline then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

(* The harness layers of one bus.  Each round times the call untraced,
   untraced without [analyze], and traced (slot probes); medians over
   rounds.  The traced call splits into the slot loop (first to last
   slot probe) and its tail (last probe to return: safety check,
   [analyze], outcome assembly); what is left is the head (arrival
   sort, set-up).  Returns (traced s, untraced s, attributed s, unexcused
   misses), normalised. *)
let bus_layers b =
  let run ?sink ?(analyze = true) () =
    let plan = plan_of b in
    Ddcr.run_trace ?plan ?sink ~analyze b.b_params b.b_inst b.b_trace
      ~horizon:b.b_horizon
  in
  let timed f = Calib.norm (snd (Calib.repeat (fun ~factor:_ -> f ()))) in
  let params_of _ = b.b_params in
  let last = ref None in
  let rs =
    rounds (fun () ->
        let t_un = timed (fun () -> run ~analyze:true ()) in
        let t_noan = timed (fun () -> run ~analyze:false ()) in
        let p = new_probe () in
        let sink = probe_sink p ~index:0 ~params_of in
        let (_, t_tr), r =
          Calib.repeat (fun ~factor:_ ->
              Spans.with_span "harness.run_trace" (fun () -> run ~sink ()))
        in
        let t_end = Calib.now () in
        finish_probe p params_of;
        Spans.record "harness.slot_loop" ~t0:p.p_first ~t1:p.p_last;
        Spans.record "harness.tail" ~t0:p.p_last ~t1:t_end;
        last := Some (p, r.Calib.factor);
        let f = r.Calib.factor in
        (t_un, t_noan, t_tr *. f, p.p_loop_s *. f, (t_end -. p.p_last) *. f))
  in
  let med g = Calib.median (List.map g rs) in
  let t_un = med (fun (x, _, _, _, _) -> x) and t_noan = med (fun (_, x, _, _, _) -> x) in
  let t_tr = med (fun (_, _, x, _, _) -> x) in
  let loop = med (fun (_, _, _, x, _) -> x) and tail = med (fun (_, _, _, _, x) -> x) in
  set "harness.analyze_share" ((t_un -. t_noan) /. t_un);
  set "harness.tail_share" (tail /. t_tr);
  let m0 = Gc.minor_words () in
  let o = run () in
  let slots = slots_of o in
  check_conservation o ~messages:b.b_messages;
  set "harness.minor_words_per_slot" ((Gc.minor_words () -. m0) /. float_of_int (max 1 slots));
  fault_counts o;
  set "harness.excused_misses" (float_of_int (fst (misses o)));
  let p, f = Option.get !last in
  set_slot_buckets p f;
  replay_step p.p_streams;
  edf_bench p b.b_trace;
  fault_plan_bench b p;
  (t_tr, t_un, loop +. tail, unexcused o)

let close_layers ~traced ~untraced ~attributed =
  set "unattributed_share" (1. -. (attributed /. traced));
  set "trace.overhead_ratio" (traced /. untraced)

let traced_bus ~faulty ~seed =
  let b, _ =
    Spans.with_span "setup" (fun () -> bus_setup ~faulty ~seed ())
  in
  let traced, untraced, attributed, failed =
    fst (Spans.with_span "unit" (fun () -> bus_layers b))
  in
  close_layers ~traced ~untraced ~attributed;
  feasibility_bench [ (b.b_params, b.b_inst) ];
  multi_tree_bench b.b_params;
  (b.b_messages, failed)

let traced_churn ~seed =
  let c, _ = Spans.with_span "setup" (fun () -> churn_setup ~seed ()) in
  set "churn.trace_hash_ms"
    (per_call 1 (fun () -> ignore (Sys.opaque_identity (Request.trace_hash c.c_trace))) *. 1e3);
  let lat = Samples.create () in
  (* Untraced service time, then one traced call timing every append. *)
  let untraced =
    Calib.median (List.init 2 (fun _ -> (run_service c ~lat).sr_norm_s))
  in
  let sr, _ =
    Spans.with_span "service.run" (fun () -> run_service ~time_appends:true c ~lat)
  in
  let eng = sr.sr_engine and traced = sr.sr_norm_s and failed = sr.sr_failed in
  set "journal.append_us" (sr.sr_append_s /. float_of_int c.c_n *. 1e6);
  set "gc.minor_words_per_decision" (sr.sr_minor /. float_of_int c.c_n);
  let st = Engine.stats eng in
  let lookups = st.Engine.st_s1_hits + st.Engine.st_s1_misses in
  set "engine.s1_lookups" (float_of_int lookups);
  set "engine.s1_hit_ratio"
    (if lookups = 0 then 0. else float_of_int st.Engine.st_s1_hits /. float_of_int lookups);
  set "engine.resident_flows" (float_of_int (Engine.size eng));
  (* The service's layers timed one call at a time on a fresh engine,
     chunk by chunk under the kernel: every decide, and a self-check at
     the service's cadence. *)
  let e = new_engine () in
  let dec = ref 0. and sc = ref 0. and n_sc = ref 0 in
  List.iteri
    (fun k reqs ->
      ignore
        (Calib.repeat (fun ~factor ->
             List.iteri
               (fun i req ->
                 let t0 = Calib.now () in
                 ignore (Engine.decide e req);
                 let t1 = Calib.now () in
                 dec := !dec +. ((t1 -. t0) *. factor);
                 if ((k * chunk) + i + 1) mod Service.default.Service.sv_selfcheck_every = 0
                 then begin
                   ignore (Engine.selfcheck e);
                   sc := !sc +. ((Calib.now () -. t1) *. factor);
                   incr n_sc
                 end)
               reqs)))
    c.c_chunks;
  set "engine.decide_us" (!dec /. float_of_int c.c_n *. 1e6);
  set "engine.selfcheck_ms" (if !n_sc = 0 then 0. else !sc /. float_of_int !n_sc *. 1e3);
  (* The closing simulation of the admitted set. *)
  let b = admitted_sim eng ~seed in
  let sim_tr, sim_un, sim_attr, sim_failed = bus_layers b in
  check (sim_failed = 0) "an admitted flow missed a deadline";
  close_layers ~traced:(traced +. sim_tr) ~untraced:(untraced +. sim_un)
    ~attributed:(sr.sr_append_s +. !dec +. !sc +. sim_attr);
  feasibility_bench [ (b.b_params, b.b_inst) ];
  multi_tree_bench b.b_params;
  (c.c_n, failed)

let traced_federation ~seed =
  let horizon = !sz.fed_horizon in
  let last = ref None in
  (* Each round: one calibrated unit (set-up layers, then the driver
     with slot probes), then the driver untraced, for the overhead. *)
  let rs =
    rounds (fun () ->
        let p = new_probe () in
        let names = ref [||] and e_ref = ref None in
        let params_of i = Admit.params_of (Option.get !e_ref) !names.(i) in
        let ((tree_s, elab_s, bridge_s, drv_s, r), unit_s), rr =
          Calib.repeat (fun ~factor:_ ->
              Spans.with_span "unit" (fun () ->
                  let topo, tree_s = Spans.with_span "topo.tree" fed_topo in
                  let e, elab_s =
                    Spans.with_span "topo.elaborate" (fun () -> fed_elaborate topo)
                  in
                  let (), bridge_s = Spans.with_span "bridge.check" (fun () -> fed_bridges e) in
                  e_ref := Some e;
                  names :=
                    Array.of_list (List.map (fun s -> s.Topo.sg_name) topo.Topo.tp_segments);
                  let sink_for ~index ~segment:_ = probe_sink p ~index ~params_of in
                  let r, drv_s =
                    Spans.with_span "driver.run_seeded" (fun () ->
                        ok_exn "driver" (Driver.run_seeded ~domains:1 ~sink_for e ~seed ~horizon))
                  in
                  (tree_s, elab_s, bridge_s, drv_s, r)))
        in
        finish_probe p params_of;
        let e = Option.get !e_ref in
        let untraced =
          Calib.norm
            (snd
               (Calib.repeat (fun ~factor:_ ->
                    ok_exn "driver" (Driver.run_seeded ~domains:1 e ~seed ~horizon))))
        in
        let f = rr.Calib.factor in
        last := Some (p, f, e, r);
        [| tree_s *. f; elab_s *. f; bridge_s *. f; drv_s *. f; p.p_loop_s *. f; unit_s *. f; untraced |])
  in
  let med i = Calib.median (List.map (fun a -> a.(i)) rs) in
  let tree_s = med 0 and elab_s = med 1 and bridge_s = med 2 and drv_s = med 3 in
  let loop_s = med 4 and unit_s = med 5 and untraced = med 6 in
  let p, f, e, r = Option.get !last in
  let chains, failed = fed_verdict r in
  set_slot_buckets p f;
  set "topo.elaborate_ms" (elab_s *. 1e3);
  set "bridge.check_ms" (bridge_s *. 1e3);
  set "driver.slot_loop_s" loop_s;
  set "driver.outside_s" (drv_s -. loop_s);
  let traces =
    List.mapi
      (fun i (s : Topo.segment) ->
        List.length (Instance.trace s.Topo.sg_instance ~seed:(Prng.derive seed i) ~horizon))
      e.Admit.e_topo.Topo.tp_segments
  in
  let handled =
    List.fold_left
      (fun a (sr : Driver.seg_result) ->
        let o = sr.Driver.sr_outcome in
        a + List.length o.Run.completions + List.length o.Run.unfinished
        + List.length o.Run.dropped)
      0 r.Driver.r_segments
  in
  set "driver.injected_msgs" (float_of_int (handled - List.fold_left ( + ) 0 traces));
  set "driver.chains" (float_of_int r.Driver.r_verdict.Driver.v_messages);
  close_layers ~traced:unit_s
    ~untraced:(untraced +. tree_s +. elab_s +. bridge_s)
    ~attributed:(drv_s +. elab_s +. bridge_s);
  replay_step p.p_streams;
  let pairs =
    List.map (fun (n, i) -> (Admit.params_of e n, i)) e.Admit.e_instances
  in
  feasibility_bench pairs;
  multi_tree_bench (snd (List.hd e.Admit.e_params));
  let first_trace =
    Instance.trace (snd (List.hd e.Admit.e_instances)) ~seed ~horizon
  in
  edf_bench p first_trace;
  (chains, failed)

let traced ~workload ~seed =
  List.iter (fun (n, _) -> set n 0.) layer_names;
  let attempted, failed =
    match workload with
    | "dense" -> traced_bus ~faulty:false ~seed
    | "faulty" -> traced_bus ~faulty:true ~seed
    | "churn" -> traced_churn ~seed
    | _ -> traced_federation ~seed
  in
  set "calib.kernel_ms" (Calib.median !Calib.kernel_log *. 1e3);
  mkdir_p tmp_dir;
  Spans.write (Filename.concat tmp_dir (Printf.sprintf "spans-%s-%d.json" workload seed));
  print_result ~attempted ~failed
    (List.map (fun (n, u) -> (n, Hashtbl.find layer n, u)) layer_names)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let calibrate () =
  let ks = List.init 60 (fun _ -> Calib.time_kernel ()) in
  Printf.printf "kernel median %.6f s, quartiles %.6f .. %.6f\n" (Calib.median ks)
    (Calib.quantile ks 0.25) (Calib.quantile ks 0.75)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let calib = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "dense|faulty|churn|federation");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measurement budget");
      ("--trace", Arg.Set_int trace, "0 end-to-end, 1 per-layer");
      ( "--size",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> sz := if s = "tiny" then tiny else full),
        " input sizes (tiny for the smoke test)" );
      ("--calibrate", Arg.Set calib, " time the calibration kernel");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !calib then calibrate ()
  else begin
    if not (List.mem !workload [ "dense"; "faulty"; "churn"; "federation" ]) then begin
      prerr_endline "perfbench: unknown --workload";
      exit 2
    end;
    mkdir_p tmp_dir;
    let seed = !seed and seconds = !seconds in
    rounds_deadline := Calib.now () +. seconds;
    if !trace = 1 then traced ~workload:!workload ~seed
    else
      match !workload with
      | "dense" -> end_to_end ~seconds ~setup:(bus_setup ~faulty:false ~seed) ~rep:bus_rep
      | "faulty" -> end_to_end ~seconds ~setup:(bus_setup ~faulty:true ~seed) ~rep:bus_rep
      | "churn" -> end_to_end ~seconds ~setup:(churn_setup ~seed) ~rep:churn_rep
      | _ -> end_to_end ~seconds ~setup:(fed_setup ~seed) ~rep:fed_rep
  end
