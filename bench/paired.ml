(* Paired timing for the guards that gate a cost ratio within one run
   ([admit_guard], [obs_guard], [slot_guard]).  The two runs alternate, one pair per
   round, and the gate reads the median of the per-round ratios: on a
   shared machine the speed drifts between rounds, which a ratio of
   two separately timed batches would read as a cost of one run. *)

(* Median of a non-empty array, sorted in place. *)
let median a =
  Array.sort compare a;
  a.(Array.length a / 2)

(* Wall time of one call in ns, from Bechamel's monotonic clock. *)
let time f =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (f ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

(* Times [a] and [b] over [rounds] rounds, alternating which runs
   first, and returns the median ns per unit of each ([units_a] and
   [units_b] units per call) and the median of the per-round ratios of
   [b]'s ns per unit to [a]'s. *)
let paired ~rounds (a, units_a) (b, units_b) =
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
        t_a.(i) <- ta /. units_a;
        t_b.(i) <- tb /. units_b;
        t_b.(i) /. t_a.(i))
  in
  (median t_a, median t_b, median ratios)
