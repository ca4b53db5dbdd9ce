module Message = Rtnet_workload.Message
module Channel = Rtnet_channel.Channel

type completion = { c_msg : Message.t; c_start : int; c_finish : int }

let latency c = c.c_finish - c.c_msg.Message.arrival

let lateness c = c.c_finish - Message.abs_deadline c.c_msg

let missed c = lateness c > 0

type source_faults = {
  sf_source : int;
  sf_crashed_slots : int;
  sf_missed : int;
  sf_misperceived : int;
  sf_desync_slots : int;
  sf_resyncs : int;
}

type fault_stats = {
  f_per_source : source_faults list;
  f_epochs : (int * int) list;
}

type outcome = {
  protocol : string;
  completions : completion list;
  unfinished : Message.t list;
  dropped : Message.t list;
  horizon : int;
  channel : Channel.stats option;
  faults : fault_stats option;
}

type metrics = {
  delivered : int;
  deadline_misses : int;
  miss_ratio : float;
  worst_latency : int;
  mean_latency : float;
  worst_lateness : int;
  inversions : int;
  garbled : int;
  utilization : float;
  desync_slots : int;
  recoveries : int;
  misperceived : int;
  missed_offline : int;
}

(* The pairs (i, j) with i before j in the list, T(j) <= start(i) and
   DM(i) > DM(j), counted by divide and conquer on list position: the
   pairs inside each half recursively, then the pairs across the split.
   For those, the left half is swept in start order while a Fenwick
   tree over deadline ranks holds the right half's messages that had
   arrived by then.  Each range leaves its positions merge-sorted by
   start in [by_start] and by arrival in [by_arrival], ready for its
   parent's sweep. *)
let inversions cs =
  let arr = Array.of_list cs in
  let n = Array.length arr in
  if n < 2 then 0
  else begin
    let start k = arr.(k).c_start in
    let arrival k = arr.(k).c_msg.Message.arrival in
    let by_start = Array.init n Fun.id in
    let by_arrival = Array.init n Fun.id in
    (* Deadline ranks in [1, n], equal deadlines sharing one:
       rank k < rank k' iff DM(k) < DM(k').  [rank] holds the deadlines
       while [by_start] is sorted on them. *)
    let rank = Array.map (fun c -> Message.abs_deadline c.c_msg) arr in
    Array.sort (fun a b -> Int.compare rank.(a) rank.(b)) by_start;
    let prev = ref 0 in
    Array.iteri
      (fun p k ->
        let d = rank.(k) in
        rank.(k) <-
          (if p > 0 && d = !prev then rank.(by_start.(p - 1)) else p + 1);
        prev := d)
      by_start;
    Array.iteri (fun p _ -> by_start.(p) <- p) by_start;
    let tree = Array.make (n + 1) 0 in
    let add r d =
      let r = ref r in
      while !r <= n do
        tree.(!r) <- tree.(!r) + d;
        r := !r + (!r land - !r)
      done
    in
    let below r =
      let r = ref (r - 1) and s = ref 0 in
      while !r > 0 do
        s := !s + tree.(!r);
        r := !r - (!r land - !r)
      done;
      !s
    in
    let tmp = Array.make n 0 in
    (* Merges perm's sorted runs [lo, mid) and [mid, hi) on key. *)
    let merge perm key lo mid hi =
      let a = ref lo and b = ref mid in
      for t = lo to hi - 1 do
        if !b >= hi || (!a < mid && key perm.(!a) <= key perm.(!b)) then begin
          tmp.(t) <- perm.(!a);
          incr a
        end
        else begin
          tmp.(t) <- perm.(!b);
          incr b
        end
      done;
      Array.blit tmp lo perm lo (hi - lo)
    in
    let rec count lo hi =
      if hi - lo < 2 then 0
      else begin
        let mid = (lo + hi) / 2 in
        let inside = count lo mid + count mid hi in
        let across = ref 0 and q = ref mid in
        for p = lo to mid - 1 do
          let i = by_start.(p) in
          while !q < hi && arrival by_arrival.(!q) <= start i do
            add rank.(by_arrival.(!q)) 1;
            incr q
          done;
          across := !across + below rank.(i)
        done;
        for p = mid to !q - 1 do
          add rank.(by_arrival.(p)) (-1)
        done;
        merge by_start start lo mid hi;
        merge by_arrival arrival lo mid hi;
        inside + !across
      end
    in
    count 0 n
  end

let metrics o =
  let delivered = List.length o.completions in
  let late = List.length (List.filter missed o.completions) in
  let due_unfinished =
    List.length
      (List.filter (fun m -> Message.abs_deadline m <= o.horizon) o.unfinished)
  in
  let drops = List.length o.dropped in
  let misses = late + drops + due_unfinished in
  let accountable = delivered + drops + due_unfinished in
  let latencies = List.map latency o.completions in
  let worst_latency = List.fold_left max 0 latencies in
  let mean_latency =
    if delivered = 0 then 0.
    else float_of_int (List.fold_left ( + ) 0 latencies) /. float_of_int delivered
  in
  let worst_lateness =
    match o.completions with
    | [] -> 0
    | c :: cs -> List.fold_left (fun acc c -> max acc (lateness c)) (lateness c) cs
  in
  let fault_sum field =
    match o.faults with
    | None -> 0
    | Some fs -> List.fold_left (fun acc sf -> acc + field sf) 0 fs.f_per_source
  in
  {
    delivered;
    deadline_misses = misses;
    miss_ratio =
      (if accountable = 0 then 0. else float_of_int misses /. float_of_int accountable);
    worst_latency;
    mean_latency;
    worst_lateness;
    inversions = inversions o.completions;
    garbled =
      (match o.channel with
      | None -> 0
      | Some st -> st.Channel.garbled_count);
    utilization =
      (match o.channel with
      | None -> 0.
      | Some st ->
        if st.Channel.total_bits = 0 then 0.
        else float_of_int st.Channel.busy_bits /. float_of_int st.Channel.total_bits);
    desync_slots = fault_sum (fun sf -> sf.sf_desync_slots);
    recoveries = fault_sum (fun sf -> sf.sf_resyncs);
    misperceived = fault_sum (fun sf -> sf.sf_misperceived);
    missed_offline = fault_sum (fun sf -> sf.sf_missed);
  }

let merge_channel_stats a b =
  {
    Channel.idle_slots = a.Channel.idle_slots + b.Channel.idle_slots;
    collision_slots = a.Channel.collision_slots + b.Channel.collision_slots;
    tx_count = a.Channel.tx_count + b.Channel.tx_count;
    garbled_count = a.Channel.garbled_count + b.Channel.garbled_count;
    busy_bits = a.Channel.busy_bits + b.Channel.busy_bits;
    total_bits = a.Channel.total_bits + b.Channel.total_bits;
  }

let merge_epochs lists =
  let all = List.sort compare (List.concat lists) in
  let rec go acc = function
    | [] -> List.rev acc
    | (s, e) :: rest -> (
      match acc with
      | (s0, e0) :: acc' when s <= e0 -> go ((s0, max e0 e) :: acc') rest
      | acc -> go ((s, e) :: acc) rest)
  in
  go [] all

let by_finish a b =
  match Int.compare a.c_finish b.c_finish with
  | 0 -> (
    match Int.compare a.c_start b.c_start with
    | 0 -> Int.compare a.c_msg.Message.uid b.c_msg.Message.uid
    | c -> c)
  | c -> c

let merge ~protocol ~horizon outcomes =
  let completions =
    List.sort by_finish (List.concat_map (fun o -> o.completions) outcomes)
  in
  let channel =
    List.fold_left
      (fun acc o ->
        match (acc, o.channel) with
        | None, s -> s
        | Some s, None -> Some s
        | Some s, Some s' -> Some (merge_channel_stats s s'))
      None outcomes
  in
  let faults =
    if List.for_all (fun o -> o.faults = None) outcomes then None
    else
      let stats =
        List.filter_map (fun o -> o.faults) outcomes
      in
      Some
        {
          f_per_source = List.concat_map (fun fs -> fs.f_per_source) stats;
          f_epochs = merge_epochs (List.map (fun fs -> fs.f_epochs) stats);
        }
  in
  {
    protocol;
    completions;
    unfinished = List.concat_map (fun o -> o.unfinished) outcomes;
    dropped = List.concat_map (fun o -> o.dropped) outcomes;
    horizon;
    channel;
    faults;
  }

let per_class_worst_latency o =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let id = c.c_msg.Message.cls.Message.cls_id in
      let l = latency c in
      match Hashtbl.find_opt tbl id with
      | Some best when best >= l -> ()
      | Some _ | None -> Hashtbl.replace tbl id l)
    o.completions;
  List.sort compare (Hashtbl.fold (fun id l acc -> (id, l) :: acc) tbl [])

let pp_metrics fmt m =
  Format.fprintf fmt
    "delivered=%d misses=%d (%.2f%%) worst-lat=%d mean-lat=%.0f \
     worst-late=%d inv=%d garbled=%d util=%.3f"
    m.delivered m.deadline_misses (100. *. m.miss_ratio) m.worst_latency
    m.mean_latency m.worst_lateness m.inversions m.garbled m.utilization;
  if
    m.desync_slots > 0 || m.recoveries > 0 || m.misperceived > 0
    || m.missed_offline > 0
  then
    Format.fprintf fmt " desync=%d resync=%d mispercv=%d missed-off=%d"
      m.desync_slots m.recoveries m.misperceived m.missed_offline
