(* Seeded admission-request stream for the churn workload.

   Light flows (one frame per 24 ms window) over 64 stations, drawn
   from a pool of ids, with the mix steered hard towards [target]
   resident flows: adds dominate below it, removes at or above it, so
   the resident count (which sets the cost of a decision and of a
   self-check) stays near the target whatever the seed.  A few requests are deliberate
   duplicate adds and removes of unknown ids — rejections the service
   must answer correctly.  The generator tracks the set it intends to
   be resident; infeasible rejections only make the real set smaller. *)

module Request = Rtnet_admit.Request
module Prng = Rtnet_util.Prng

let sources = 64
let pool = 1000
let target = 100

(* Quaternary trees; the time horizon c·F = 8192 · 1024 bit-times
   covers every deadline drawn below; 256 static leaves, four per
   station, round-robin. *)
let params =
  let q = 256 in
  {
    Rtnet_core.Ddcr_params.time_m = 4;
    time_leaves = 1024;
    class_width = 8192;
    alpha = 8192;
    theta = 0;
    static_m = 4;
    static_leaves = q;
    static_indices =
      Array.init sources (fun i -> Array.init (q / sources) (fun j -> i + (j * sources)));
    burst_bits = 0;
  }

let phy = Rtnet_channel.Phy.gigabit_ethernet

let window = 24_000_000

let flow rng id =
  {
    Request.fl_id = Printf.sprintf "f%d" id;
    fl_source = Prng.int rng sources;
    fl_bits = 800 + Prng.int rng 1600;
    fl_deadline = 3_000_000 + Prng.int rng 3_000_000;
    fl_burst = 1;
    fl_window = window;
    fl_offset = Prng.int rng window;
  }

let requests ~seed ~n =
  let rng = Prng.create seed in
  let resident = Array.make pool false in
  let members = Array.make pool 0 in
  let count = ref 0 in
  let pick_member () = members.(Prng.int rng !count) in
  let add id =
    resident.(id) <- true;
    members.(!count) <- id;
    incr count
  in
  let remove id =
    resident.(id) <- false;
    let i = ref 0 in
    while members.(!i) <> id do incr i done;
    decr count;
    members.(!i) <- members.(!count)
  in
  let rec fresh () =
    let id = Prng.int rng pool in
    if resident.(id) then fresh () else id
  in
  List.init n (fun _ ->
      let r = Prng.int rng 100 in
      let add_share = if !count < target then 75 else 10 in
      if r < 2 && !count > 0 then Request.Add (flow rng (pick_member ()))
      else if r < 4 then
        let id = fresh () in
        Request.Remove (Printf.sprintf "f%d" id)
      else if r < 4 + add_share || !count = 0 then begin
        let id = fresh () in
        add id;
        Request.Add (flow rng id)
      end
      else if r < 90 then begin
        let id = pick_member () in
        remove id;
        Request.Remove (Printf.sprintf "f%d" id)
      end
      else Request.Modify (flow rng (pick_member ())))
