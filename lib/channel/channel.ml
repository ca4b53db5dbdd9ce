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

type fault = { fault_rate : float; fault_seed : int }

type carried = {
  mutable c_src : int;
  mutable c_tag : int;
  mutable c_start : int;
  mutable c_finish : int;
}

type t = {
  phy : Phy.t;
  mutable free_at : int;
  mutable holder : int; (* source of the frame just carried, -1 if none *)
  noise : Rtnet_util.Prng.t option; (* fault-injection draws *)
  fault_rate : float;
  plan : Fault_plan.t option; (* richer fault model; excludes [noise] *)
  mutable st : stats;
  last : carried; (* the most recent carried frame, updated in place *)
}

let create ?fault ?plan phy =
  (match (fault, plan) with
  | Some _, Some _ ->
    invalid_arg "Channel.create: fault and plan are mutually exclusive"
  | _ -> ());
  let noise, fault_rate =
    match fault with
    | None -> (None, 0.)
    | Some { fault_rate; fault_seed } ->
      if fault_rate < 0. || fault_rate > 1. then
        invalid_arg "Channel.create: fault_rate out of [0, 1]";
      (Some (Rtnet_util.Prng.create fault_seed), fault_rate)
  in
  {
    phy;
    plan;
    free_at = 0;
    holder = -1;
    noise;
    fault_rate;
    st =
      {
        idle_slots = 0;
        collision_slots = 0;
        tx_count = 0;
        garbled_count = 0;
        busy_bits = 0;
        total_bits = 0;
      };
    last = { c_src = -1; c_tag = -1; c_start = 0; c_finish = 0 };
  }

let phy ch = ch.phy

let slot_bits ch = ch.phy.Phy.slot_bits

let distinct_sources attempts =
  let sorted =
    List.sort compare (List.map (fun a -> a.att_source) attempts)
  in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
    | [ _ ] | [] -> true
  in
  no_dup sorted

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
  ch.st <-
    {
      ch.st with
      tx_count = ch.st.tx_count + 1;
      busy_bits = ch.st.busy_bits + on_wire;
    };
  on_wire

let contend ch ~now attempts =
  if now < ch.free_at then invalid_arg "Channel.contend: channel busy";
  if not (distinct_sources attempts) then
    invalid_arg "Channel.contend: duplicate source in slot";
  (* The burst-noise state chain advances once per contention slot,
     whatever the slot carries. *)
  (match ch.plan with None -> () | Some p -> Fault_plan.tick p);
  let slot = ch.phy.Phy.slot_bits in
  let finish_idle () =
    ch.st <-
      {
        ch.st with
        idle_slots = ch.st.idle_slots + 1;
        total_bits = ch.st.total_bits + slot;
      };
    (Idle, now + slot)
  in
  let garbled ch =
    match ch.plan with
    | Some p -> Fault_plan.wire_garbles p ~now
    | None -> (
      match ch.noise with
      | None -> false
      | Some rng -> Rtnet_util.Prng.float rng 1.0 < ch.fault_rate)
  in
  let finish_tx a =
    if garbled ch then begin
      (* The frame occupies the wire for its full length but carries
         nothing: every station sees a CRC-invalid frame. *)
      let on_wire = Phy.tx_bits ch.phy a.att_bits in
      ch.st <-
        {
          ch.st with
          garbled_count = ch.st.garbled_count + 1;
          total_bits = ch.st.total_bits + on_wire;
        };
      (Garbled { on_wire }, now + on_wire)
    end
    else begin
      let on_wire =
        record_tx ch ~src:a.att_source ~tag:a.att_tag ~start:now ~bits:a.att_bits
      in
      ch.st <- { ch.st with total_bits = ch.st.total_bits + on_wire };
      (Tx { src = a.att_source; tag = a.att_tag; on_wire }, now + on_wire)
    end
  in
  let finish_clash contenders =
    let ids = List.map (fun a -> (a.att_source, a.att_tag)) contenders in
    match ch.phy.Phy.semantics with
    | Phy.Destructive ->
      ch.st <-
        {
          ch.st with
          collision_slots = ch.st.collision_slots + 1;
          total_bits = ch.st.total_bits + slot;
        };
      (Clash { contenders = ids; survivor = None }, now + slot)
    | Phy.Arbitration ->
      (* Wired-OR arbitration: the smallest (deadline, static-index) key
         survives the collision window and transmits immediately. *)
      let best =
        List.fold_left
          (fun acc a ->
            match acc with
            | None -> Some a
            | Some b ->
              if
                compare (a.att_key, a.att_source) (b.att_key, b.att_source)
                < 0
              then Some a
              else acc)
          None contenders
      in
      let a = match best with Some a -> a | None -> assert false in
      let on_wire =
        record_tx ch ~src:a.att_source ~tag:a.att_tag ~start:(now + slot)
          ~bits:a.att_bits
      in
      ch.st <-
        {
          ch.st with
          collision_slots = ch.st.collision_slots + 1;
          total_bits = ch.st.total_bits + slot + on_wire;
        };
      ( Clash
          {
            contenders = ids;
            survivor = Some (a.att_source, a.att_tag, on_wire);
          },
        now + slot + on_wire )
  in
  let resolution, free_at =
    match attempts with
    | [] -> finish_idle ()
    | [ a ] -> finish_tx a
    | _ :: _ :: _ -> finish_clash attempts
  in
  ch.free_at <- free_at;
  ch.holder <-
    (match resolution with
    | Tx { src; _ } | Clash { survivor = Some (src, _, _); _ } -> src
    | Idle | Garbled _ | Clash { survivor = None; _ } -> -1);
  (resolution, free_at)

let burst ch ~src ~tag ~bits =
  if ch.holder < 0 || ch.holder <> src then
    invalid_arg "Channel.burst: source does not hold the channel";
  let start = ch.free_at in
  let on_wire = record_tx ch ~src ~tag ~start ~bits in
  ch.st <- { ch.st with total_bits = ch.st.total_bits + on_wire };
  ch.free_at <- start + on_wire;
  (on_wire, ch.free_at)

let stats ch = ch.st

let utilization ch =
  if ch.st.total_bits = 0 then 0.
  else float_of_int ch.st.busy_bits /. float_of_int ch.st.total_bits

let last_carried ch = ch.last
