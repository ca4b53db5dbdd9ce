(* Clock, calibration kernel and order statistics.

   Raw wall time on a small shared VM moves by tens of percent between
   processes running the same binary.  A fixed kernel timed just before
   each timing moves with it, so every timing the benchmark reports is
   [raw * (reference_kernel_s / kernel_s) ** sensitivity], [kernel_s]
   the median of the last three kernel timings: seconds as they would
   read on the machine the reference was taken on, in its usual
   state.  The kernel makes no rtnet call, so no change to the
   library can move it. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Median kernel time on the reference machine (a 2-vCPU x86-64 VM,
   OCaml 5.1.1).  Re-measure with [bench.exe --calibrate] only when
   moving the benchmark to other hardware; changing it rescales every
   reported time. *)
let reference_kernel_s = 0.045

(* How much more than the kernel the workloads slow down when the
   machine does: across processes on the reference machine, timings
   scaled by [(reference / kernel) ** sensitivity] spread least at
   about 1.3 (dense and federation, ten processes each; at 1.0 the
   kernel under-corrects slow phases). *)
let sensitivity = 1.3

(* A fixed integer / cons-cell loop: build, map, sort and fold a list
   of 120k elements (a few MB live), the same kinds of work as the
   simulator (short-lived allocation, pointer chasing, polymorphic
   compare, minor and major GC) and none of its code.  The working set
   matters: a cache-resident 4k-element version tracked the machine's
   slow and fast phases far less well. *)
let kernel () =
  let l = List.init 120_000 (fun i -> ((i * 7919) + 1) land 1048575) in
  let l = List.rev_map (fun x -> (x * 3) lxor 1) l in
  let a = Array.of_list l in
  Array.sort compare a;
  Sys.opaque_identity
    (a.(0) + List.fold_left (fun s x -> if x land 1 = 0 then s + x else s - 1) 0 l)

let time_kernel () =
  let t0 = now () in
  ignore (kernel ());
  now () -. t0

(* Linear-interpolated quantile (numpy's default) of a sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile_sorted a q

let median xs = quantile xs 0.5

(* Kernel times of this process, for the audit line. *)
let kernel_log = ref []

type rep = {
  raw : float;  (** wall seconds of the timed call *)
  factor : float;
      (** [(reference_kernel_s / k) ** sensitivity], [k] the median of
          the last three kernel timings *)
}

let norm r = r.raw *. r.factor

(* [repeat f] settles the heap, times the kernel, then times [f
   ~factor]; [f] may use [factor] to normalise finer timings it takes
   itself. *)
let repeat f =
  Gc.full_major ();
  let k = time_kernel () in
  kernel_log := k :: !kernel_log;
  (* One kernel timing is itself noisy (~±10%), while the machine's
     phases last seconds: normalise by the median of the last three. *)
  let recent = List.filteri (fun i _ -> i < 3) !kernel_log in
  let factor = (reference_kernel_s /. median recent) ** sensitivity in
  let t0 = now () in
  let v = f ~factor in
  let raw = now () -. t0 in
  (v, { raw; factor })

(* Per-decision latencies, in a log-linear histogram over the float's
   bit pattern: 128 sub-buckets per power of two (~0.5% wide), fixed
   memory, a few instructions per sample.  Quantiles interpolate
   linearly inside the bucket that holds the rank. *)
module Samples = struct
  let shift = 52 - 7

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make (1 lsl (63 - shift)) 0; n = 0 }

  let add t x =
    if x > 0. then begin
      let i = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) shift) in
      Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1);
      t.n <- t.n + 1
    end

  let length t = t.n

  let reset t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.n <- 0

  let edge i = Int64.float_of_bits (Int64.shift_left (Int64.of_int i) shift)

  let quantile t q =
    if t.n = 0 then nan
    else
      let rank = q *. float_of_int (t.n - 1) in
      let rec walk i below =
        let c = t.counts.(i) in
        if c > 0 && float_of_int (below + c) > rank then
          let lo = edge i and hi = edge (i + 1) in
          lo +. ((hi -. lo) *. ((rank -. float_of_int below +. 0.5) /. float_of_int c))
        else walk (i + 1) (below + c)
      in
      walk 0 0
end
