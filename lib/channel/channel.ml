type attempt = {
  att_source : int;
  att_tag : int;
  att_bits : int;
  att_key : int * int;
}

type resolution =
  | Idle
  | Tx of { src : int; tag : int; on_wire : int }
  | Garbled of { on_wire : int }
  | Clash of {
      contenders : (int * int) list;
      survivor : (int * int * int) option;
    }

type stats = {
  idle_slots : int;
  collision_slots : int;
  tx_count : int;
  garbled_count : int;
  busy_bits : int;
  total_bits : int;
}

type carried = {
  mutable c_src : int;
  mutable c_tag : int;
  mutable c_start : int;
  mutable c_finish : int;
}

(* The counters are mutable fields, so updating one allocates nothing;
   [stats] copies them out. *)
type t = {
  phy : Phy.t;
  mutable free_at : int;
  mutable holder : int; (* source of the frame just carried, -1 if none *)
  mutable idle : int;
  mutable collisions : int;
  mutable carried_frames : int;
  mutable garbled_frames : int;
  mutable busy : int;
  mutable total : int;
  last : carried; (* the most recent carried frame, updated in place *)
}

let create phy =
  {
    phy;
    free_at = 0;
    holder = -1;
    idle = 0;
    collisions = 0;
    carried_frames = 0;
    garbled_frames = 0;
    busy = 0;
    total = 0;
    last = { c_src = -1; c_tag = -1; c_start = 0; c_finish = 0 };
  }

let copy ch =
  let last = { ch.last with c_src = ch.last.c_src } (* a fresh record *) in
  { ch with last }

let phy ch = ch.phy

let slot_bits ch = ch.phy.Phy.slot_bits

(* Pairwise over the slot's few attempts, allocating nothing. *)
let rec source_absent src = function
  | [] -> true
  | a :: rest -> a.att_source <> src && source_absent src rest

let rec distinct_sources = function
  | [] -> true
  | a :: rest -> source_absent a.att_source rest && distinct_sources rest

(* Mutual exclusion, checked as each frame is carried: it must start no
   earlier than the previous carried frame ended. *)
let record_tx ch ~src ~tag ~start ~bits =
  let on_wire = Phy.tx_bits ch.phy bits in
  let last = ch.last in
  if start < last.c_finish then
    failwith
      (Printf.sprintf
         "MAC safety violated: transmissions overlap: src %d tag %d (ends %d) \
          vs src %d tag %d (starts %d)"
         last.c_src last.c_tag last.c_finish src tag start);
  last.c_src <- src;
  last.c_tag <- tag;
  last.c_start <- start;
  last.c_finish <- start + on_wire;
  ch.carried_frames <- ch.carried_frames + 1;
  ch.busy <- ch.busy + on_wire;
  on_wire

(* The slot outcomes.  Each one updates the counters, sets [free_at]
   and [holder], and returns the resolution; they are top-level
   functions so a slot builds no closure. *)
let finish_idle ch ~now =
  let slot = ch.phy.Phy.slot_bits in
  ch.idle <- ch.idle + 1;
  ch.total <- ch.total + slot;
  ch.free_at <- now + slot;
  ch.holder <- -1;
  Idle

let garbled plan ~now =
  match plan with Some p -> Fault_plan.wire_garbles p ~now | None -> false

let finish_tx ch plan ~now a =
  if garbled plan ~now then begin
    (* The frame occupies the wire for its full length but carries
       nothing: every station sees a CRC-invalid frame. *)
    let on_wire = Phy.tx_bits ch.phy a.att_bits in
    ch.garbled_frames <- ch.garbled_frames + 1;
    ch.total <- ch.total + on_wire;
    ch.free_at <- now + on_wire;
    ch.holder <- -1;
    Garbled { on_wire }
  end
  else begin
    let on_wire =
      record_tx ch ~src:a.att_source ~tag:a.att_tag ~start:now ~bits:a.att_bits
    in
    ch.total <- ch.total + on_wire;
    ch.free_at <- now + on_wire;
    ch.holder <- a.att_source;
    Tx { src = a.att_source; tag = a.att_tag; on_wire }
  end

(* Wired-OR arbitration order: the smaller key wins, then the smaller
   source id. *)
let beats a b =
  let d1, i1 = a.att_key and d2, i2 = b.att_key in
  d1 < d2 || (d1 = d2 && (i1 < i2 || (i1 = i2 && a.att_source < b.att_source)))

let rec arbitrate best = function
  | [] -> best
  | a :: rest -> arbitrate (if beats a best then a else best) rest

let id a = (a.att_source, a.att_tag)

let finish_clash ch ~now first rest =
  let slot = ch.phy.Phy.slot_bits in
  let ids = id first :: List.map id rest in
  ch.collisions <- ch.collisions + 1;
  match ch.phy.Phy.semantics with
  | Phy.Destructive ->
    ch.total <- ch.total + slot;
    ch.free_at <- now + slot;
    ch.holder <- -1;
    Clash { contenders = ids; survivor = None }
  | Phy.Arbitration ->
    (* The smallest key survives the collision window and transmits
       immediately. *)
    let a = arbitrate first rest in
    let on_wire =
      record_tx ch ~src:a.att_source ~tag:a.att_tag ~start:(now + slot)
        ~bits:a.att_bits
    in
    ch.total <- ch.total + slot + on_wire;
    ch.free_at <- now + slot + on_wire;
    ch.holder <- a.att_source;
    Clash { contenders = ids; survivor = Some (a.att_source, a.att_tag, on_wire) }

let contend ch plan ~now attempts =
  if now < ch.free_at then invalid_arg "Channel.contend: channel busy";
  if not (distinct_sources attempts) then
    invalid_arg "Channel.contend: duplicate source in slot";
  (* The burst-noise state chain advances once per contention slot,
     whatever the slot carries. *)
  (match plan with Some p -> Fault_plan.tick p | None -> ());
  match attempts with
  | [] -> finish_idle ch ~now
  | [ a ] -> finish_tx ch plan ~now a
  | first :: rest -> finish_clash ch ~now first rest

let free_at ch = ch.free_at

let burst ch ~src ~tag ~bits =
  if ch.holder < 0 || ch.holder <> src then
    invalid_arg "Channel.burst: source does not hold the channel";
  let start = ch.free_at in
  let on_wire = record_tx ch ~src ~tag ~start ~bits in
  ch.total <- ch.total + on_wire;
  ch.free_at <- start + on_wire;
  (on_wire, ch.free_at)

let stats ch =
  {
    idle_slots = ch.idle;
    collision_slots = ch.collisions;
    tx_count = ch.carried_frames;
    garbled_count = ch.garbled_frames;
    busy_bits = ch.busy;
    total_bits = ch.total;
  }

let tx_count ch = ch.carried_frames

let utilization ch =
  if ch.total = 0 then 0. else float_of_int ch.busy /. float_of_int ch.total

let last_carried ch = ch.last
