(* slot_guard: the station-scaling and fault-path gates of the DDCR
   slot.

   Without a fault plan a slot does work in proportion to the stations
   that transmit, not to the station count: the shared replica is
   stepped once, and a station that does not transmit costs one load
   and two compares.  This guard runs the dense benchmark bus (16 busy
   stations under the staggered greedy adversary) twice on one 64-leaf
   static tree: alone, and with 48 silent stations added.  Busy station
   i owns static index 4i in both runs and the silent stations own the
   other 48 indices, so both runs carry the same schedule.  It fails
   (exit 1) if the two outcome digests differ, or if a slot with the
   silent stations costs more than [threshold] times a slot without
   them.

   The faulted arm runs the benchmark's faulty bus (the same classes
   and arrivals with four times the deadline) under its fault plan —
   misperception 0.001, i.i.d. garbling 0.002 and one 50 µs crash
   window — and under no plan.  The per-station plan queries draw and
   allocate nothing beyond what fault handling needs, so a slot under
   the plan may cost at most [fault_threshold] times a slot without
   one; a slot that allocates per station query lands well above it.

   The runs are timed with Bechamel's monotonic clock, alternating, one
   pair per round (see [rounds] below).

   Run directly (it is part of `make slot-guard`):
     dune exec bench/slot_guard.exe *)

module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Instance = Rtnet_workload.Instance
module Scenarios = Rtnet_workload.Scenarios
module Arrival = Rtnet_workload.Arrival
module Message = Rtnet_workload.Message
module Channel = Rtnet_channel.Channel
module Run = Rtnet_stats.Run
module Prng = Rtnet_util.Prng
module Fault_plan = Rtnet_channel.Fault_plan

(* Four times the stations may cost at most this much more per slot.
   A slot that pays per station lands well above it. *)
let threshold = 1.8

(* A slot under the faulty plan may cost at most this much more than a
   slot without a plan. *)
let fault_threshold = 3.5

let busy = 16
let leaves = 64
let horizon = 20_000_000

(* The benchmark's dense bus, seed 1. *)
let dense =
  let base =
    Scenarios.uniform ~sources:busy ~classes_per_source:2 ~load:0.8
      ~deadline_windows:2.0
  in
  let phase = Prng.float (Prng.create 1) (1. /. 16.) in
  Instance.with_law base (Arrival.Staggered_burst { phase })

let with_silent =
  Instance.create_exn ~name:"dense+silent" ~phy:dense.Instance.phy
    ~num_sources:leaves
    (Array.to_list dense.Instance.classes)

(* Busy station i owns index 4i; the silent stations, in order, own the
   indices that are not a multiple of 4. *)
let params_for ~stations =
  let silent = List.filter (fun i -> i mod 4 <> 0) (List.init leaves Fun.id) in
  let static_indices =
    Array.init stations (fun s ->
        if s < busy then [| 4 * s |] else [| List.nth silent (s - busy) |])
  in
  let p =
    {
      (Ddcr_params.default dense) with
      Ddcr_params.static_m = 4;
      static_leaves = leaves;
      static_indices;
    }
  in
  match Ddcr_params.validate p ~num_sources:stations with
  | Ok () -> p
  | Error e -> failwith ("slot_guard: " ^ e)

let trace = Instance.trace dense ~seed:1 ~horizon

(* The benchmark's faulty bus and plan, seed 1. *)
let faulty = Instance.scale_deadlines dense 4.0
let faulty_trace = Instance.trace faulty ~seed:1 ~horizon

let faulty_plan =
  Fault_plan.merge
    [
      Fault_plan.misperceive 0.001;
      Fault_plan.iid 0.002;
      Fault_plan.crash
        ~source:(Prng.int (Prng.create 2) busy)
        ~from_:(horizon / 4)
        ~until:((horizon / 4) + 50_000);
    ]

let run_faulty ~planned =
  let p = Ddcr_params.default faulty in
  fun () ->
    let plan =
      if planned then Some (Fault_plan.create ~horizon ~seed:1 faulty_plan)
      else None
    in
    Ddcr.run_trace ?plan p faulty faulty_trace ~horizon

let run inst =
  let p = params_for ~stations:inst.Instance.num_sources in
  fun () -> Ddcr.run_trace p inst trace ~horizon

let digest (o : Run.outcome) =
  let b = Buffer.create 65536 in
  List.iter
    (fun c ->
      Printf.bprintf b "%d:%d:%d;" c.Run.c_msg.Message.uid c.Run.c_start
        c.Run.c_finish)
    o.Run.completions;
  Printf.bprintf b "|%d|%d" (List.length o.Run.unfinished)
    (List.length o.Run.dropped);
  Digest.to_hex (Digest.string (Buffer.contents b))

let slots (o : Run.outcome) =
  match o.Run.channel with
  | Some s ->
    s.Channel.idle_slots + s.Channel.collision_slots + s.Channel.tx_count
    + s.Channel.garbled_count
  | None -> 0

(* Median of a non-empty array, sorted in place. *)
let median a =
  Array.sort compare a;
  a.(Array.length a / 2)

let rounds = 150

(* Wall time of one call, from Bechamel's monotonic clock. *)
let time f =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (f ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

(* Times [a] and [b], alternating, one pair per round, and returns the
   median ns per slot of each and the median of the per-round ratios
   of [b]'s ns per slot to [a]'s.  On a shared machine the speed
   drifts between rounds, which a ratio of two separate batches would
   read as a cost of [b]. *)
let paired (a, slots_a) (b, slots_b) =
  let t_a = Array.make rounds 0. and t_b = Array.make rounds 0. in
  let ratios =
    Array.init rounds (fun i ->
        let ta, tb =
          if i land 1 = 0 then
            let ta = time a in
            (ta, time b)
          else
            let tb = time b in
            (time a, tb)
        in
        t_a.(i) <- ta /. slots_a;
        t_b.(i) <- tb /. slots_b;
        t_b.(i) /. t_a.(i))
  in
  (median t_a, median t_b, median ratios)

let scaling () =
  let alone = run dense and crowded = run with_silent in
  let o_alone = alone () and o_crowded = crowded () in
  let d_alone = digest o_alone and d_crowded = digest o_crowded in
  if d_alone <> d_crowded then begin
    Printf.printf
      "slot_guard: FAIL — the silent stations changed the schedule (%s vs %s)\n"
      d_alone d_crowded;
    false
  end
  else begin
    let n = float_of_int (slots o_alone) in
    let ns_alone, ns_crowded, ratio = paired (alone, n) (crowded, n) in
    Printf.printf
      "slot_guard: %.0f slots, digest %s; %.0f ns/slot with %d stations, %.0f \
       ns/slot with %d (median ratio of %d rounds %.2fx)\n"
      n d_alone ns_alone busy ns_crowded leaves rounds ratio;
    if ratio > threshold then begin
      Printf.printf
        "slot_guard: FAIL — %d silent stations make a slot %.2fx as costly \
         (ceiling %.1fx): the slot pays per station again\n"
        (leaves - busy) ratio threshold;
      false
    end
    else begin
      Printf.printf "slot_guard: ok (ceiling %.1fx)\n" threshold;
      true
    end
  end

let faulted () =
  let bare = run_faulty ~planned:false and planned = run_faulty ~planned:true in
  let n_bare = float_of_int (slots (bare ()))
  and n_planned = float_of_int (slots (planned ())) in
  let ns_bare, ns_planned, ratio =
    paired (bare, n_bare) (planned, n_planned)
  in
  Printf.printf
    "slot_guard: faulty bus, %.0f slots without a plan at %.0f ns/slot, %.0f \
     under the plan at %.0f ns/slot (median ratio of %d rounds %.2fx)\n"
    n_bare ns_bare n_planned ns_planned rounds ratio;
  if ratio > fault_threshold then begin
    Printf.printf
      "slot_guard: FAIL — the fault plan makes a slot %.2fx as costly \
       (ceiling %.2fx): the plan queries cost per station again\n"
      ratio fault_threshold;
    false
  end
  else begin
    Printf.printf "slot_guard: ok (ceiling %.2fx)\n" fault_threshold;
    true
  end

let () =
  let scaling_ok = scaling () in
  let faulted_ok = faulted () in
  if not (scaling_ok && faulted_ok) then exit 1
