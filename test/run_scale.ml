(* Builds N completions of one long, busy bus and scores them with
   Run.metrics; a runtest rule runs it on 300 000 completions under a
   time limit, so a return of the pairwise deadline-inversion count
   (4.5·10¹⁰ pairs there) fails the suite.

   Usage: run_scale.exe N *)

module Message = Rtnet_workload.Message
module Run = Rtnet_stats.Run

let () =
  let n = int_of_string Sys.argv.(1) in
  let rng = Random.State.make [| 1 |] in
  let classes =
    Array.init 64 (fun id ->
        {
          Message.cls_id = id;
          cls_name = "c" ^ string_of_int id;
          cls_source = id mod 16;
          cls_bits = 1_000;
          cls_deadline = 1_000 * (1 + Random.State.int rng 1_000);
          cls_burst = 1;
          cls_window = 1_000_000;
        })
  in
  (* One frame per 1 000 bit-times, each queued for up to 100 frame
     times: every completion overlaps ~100 pending messages. *)
  let completions =
    List.init n (fun k ->
        let start = 1_000 * k in
        let cls = classes.(Random.State.int rng (Array.length classes)) in
        let arrival = max 0 (start - Random.State.int rng 100_000) in
        {
          Run.c_msg = { Message.uid = k; cls; arrival };
          c_start = start;
          c_finish = start + 1_000;
        })
  in
  let m =
    Run.metrics
      {
        Run.protocol = "scale";
        completions;
        unfinished = [];
        dropped = [];
        horizon = 1_000 * n;
        channel = None;
        faults = None;
      }
  in
  Printf.printf "%d completions scored, %d deadline inversions\n"
    m.Run.delivered m.Run.inversions
