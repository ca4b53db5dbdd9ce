(* admit_guard: the incremental-admission speedup gate.

   The admission engine answers each request by updating running
   per-class sums of Feasibility's §4.3 terms in O(n) instead of
   re-running the O(n²) pairwise analysis; Engine.decide_full is the
   from-scratch path, Feasibility.check itself on the tentative flow
   set.  This guard drains the same churn stream both ways through
   fresh engines and fails (exit 1) unless the incremental path is at
   least [threshold] times faster — the regression it pins is the
   incremental path silently degrading into re-analysis (a dropped
   cache, an accidentally-quadratic delta).  The two drains alternate,
   one pair per round, and the gate reads the median of the per-round
   ratios ([Paired.paired], shared with obs_guard and slot_guard).

   Run directly (it is part of `make admit-smoke`):
     dune exec bench/admit_guard.exe *)

module Engine = Rtnet_admit.Engine
module Request = Rtnet_admit.Request
module Ddcr_params = Rtnet_core.Ddcr_params

(* The pinned floor.  The asymptotic gap grows with the resident flow
   count, so the stream below (hundreds of admitted low-rate flows)
   lands the measured ratio well above this. *)
let threshold = 10.

let sources = 4

(* Same shape as ddcr_admit gen's defaults: quaternary trees, horizon
   c·F past the largest sampled deadline, round-robin static leaves. *)
let params =
  let rec pow4 n = if n >= 2 * sources then n else pow4 (4 * n) in
  let q = pow4 4 in
  let static_indices =
    Array.init sources (fun i ->
        let rec walk j acc =
          if j >= q then List.rev acc else walk (j + sources) (j :: acc)
        in
        Array.of_list (walk i []))
  in
  {
    Ddcr_params.time_m = 4;
    time_leaves = 1024;
    class_width = 8192;
    alpha = 8192;
    theta = 0;
    static_m = 4;
    static_leaves = q;
    static_indices;
    burst_bits = 0;
  }

(* Build-up then steady-state churn: 200 adds of distinct low-rate
   flows (each contributes ~1 interference term to every class, so the
   resident set grows into the hundreds before the bound binds),
   followed by 100 modifies at full population.  Deciding one request
   against n residents is O(n) incrementally and O(n²) from scratch;
   a rejected add pays the same attach/evaluate/detach, so the
   comparison holds whether or not the tail of the stream is
   admitted. *)
let requests =
  let flow i =
    {
      Request.fl_id = Printf.sprintf "g%d" i;
      fl_source = i mod sources;
      fl_bits = 1600;
      fl_deadline = 4_000_000;
      fl_burst = 1;
      fl_window = 16_000_000;
      fl_offset = 0;
    }
  in
  List.init 200 (fun i -> Request.Add (flow i))
  @ List.init 100 (fun i -> Request.Modify (flow (i * 2)))

let phy =
  match Request.phy_of_name "gigabit-ethernet" with
  | Ok p -> p
  | Error e -> failwith e

let drain decide () =
  match Engine.create ~phy ~num_sources:sources ~params with
  | Error e -> failwith e
  | Ok eng -> List.iter (fun r -> ignore (decide eng r)) requests

let rounds = 30

let () =
  let inc, full, ratio =
    Paired.paired ~rounds
      (drain Engine.decide, 1.)
      (drain Engine.decide_full, 1.)
  in
  Printf.printf
    "admit_guard: incremental %.0f ns/stream, from_scratch %.0f ns/stream \
     (median ratio of %d rounds %.1fx)\n"
    inc full rounds ratio;
  if ratio < threshold then begin
    Printf.printf
      "admit_guard: FAIL — incremental admission is only %.1fx the \
       from-scratch analysis (pinned floor %.0fx); the cached sums have \
       stopped paying for themselves\n"
      ratio threshold;
    exit 1
  end
  else Printf.printf "admit_guard: ok (floor %.0fx)\n" threshold
