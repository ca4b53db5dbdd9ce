(* obs_guard: the live flight-recorder overhead gate.

   The black-box recorder rides on the Sink API, and recording a run
   must cost what a bounded int-array push per probe costs: this guard
   times the simulator without a sink and with a live flight-recorder
   ring, and fails (exit 1) if the ring run exceeds the plain run by
   more than the threshold.  A run without a sink is a run with
   Sink.null ([Ddcr.run_trace]'s default), so the disabled path itself
   is pinned by allocation instead: the unit test "slot allocation
   pinned at 16 stations" (test/test_ddcr.ml) runs with the null sink.

   The two runs alternate, one pair per round, and the gate reads the
   median of the per-round ratios ([Paired.paired], shared with
   slot_guard): two separately timed batches drift apart on a shared
   machine, and the 400 rounds take about 0.1 s.

   Run directly (it is part of `make obs-smoke`):
     dune exec bench/obs_guard.exe *)

module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Instance = Rtnet_workload.Instance
module Scenarios = Rtnet_workload.Scenarios
module Flight = Rtnet_obs.Flight

let ms = 1_000_000

(* Ratio above which recording is considered too costly.  Generous:
   CI machines are noisy and the runs are short; the ring reads about
   1.1–1.2x, and a real regression (allocation per probe, a probe
   that stops being bounded) lands far above this. *)
let threshold = 1.5

let rounds = 400

let () =
  let uniform =
    Scenarios.uniform ~sources:8 ~classes_per_source:2 ~load:0.4
      ~deadline_windows:2.0
  in
  let params = Ddcr_params.default uniform in
  let trace = Instance.trace uniform ~seed:1 ~horizon:(2 * ms) in
  let default () = Ddcr.run_trace params uniform trace ~horizon:(2 * ms) in
  let flight_ring () =
    let f = Flight.create ~segment:"guard" () in
    Ddcr.run_trace ~sink:(Flight.sink f) params uniform trace
      ~horizon:(2 * ms)
  in
  let base, ring, ratio =
    Paired.paired ~rounds (default, 1.) (flight_ring, 1.)
  in
  Printf.printf
    "obs_guard: default %.0f ns/run, flight_ring %.0f ns/run (median ratio \
     of %d rounds %.3fx)\n"
    base ring rounds ratio;
  if ratio > threshold then begin
    Printf.printf
      "obs_guard: FAIL — the flight ring costs %.3fx > %.2fx the run \
       without a sink\n"
      ratio threshold;
    exit 1
  end
  else Printf.printf "obs_guard: ok (threshold %.2fx)\n" threshold
