module Int_math = Rtnet_util.Int_math
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Phy = Rtnet_channel.Phy

type t = {
  time_m : int;
  time_leaves : int;
  class_width : int;
  alpha : int;
  theta : int;
  static_m : int;
  static_leaves : int;
  static_indices : int array array;
  burst_bits : int;
}

(* The indices seen so far, hashed by value: every index reaching the
   table lies in [0, q), so the identity spreads them over the buckets
   without a call to the polymorphic hash. *)
module Index_set = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v
end)

let validate p ~num_sources =
  let power_of m v = m >= 2 && v >= m && Int_math.is_power_of m v in
  if not (power_of p.time_m p.time_leaves) then
    Error "time_leaves must be a power (>= m) of time_m"
  else if not (power_of p.static_m p.static_leaves) then
    Error "static_leaves must be a power (>= m) of static_m"
  else if p.class_width <= 0 then Error "class_width must be positive"
  else if p.alpha < 0 then Error "alpha must be non-negative"
  else if p.theta < 0 then Error "theta must be non-negative"
  else if p.burst_bits < 0 then Error "burst_bits must be non-negative"
  else if Array.length p.static_indices <> num_sources then
    Error "static_indices must have one entry per source"
  else begin
    (* Sized for every index up front, so it never grows. *)
    let seen =
      Index_set.create
        (Array.fold_left (fun n idx -> n + Array.length idx) 0 p.static_indices)
    in
    (* A row reports its first failing index, as every decoder reports
       its first error. *)
    let check_source i idx =
      let rec walk j =
        if j >= Array.length idx then None
        else
          let v = idx.(j) in
          if v < 0 || v >= p.static_leaves then
            Some (Printf.sprintf "source %d: index %d out of range" i v)
          else if j > 0 && idx.(j - 1) >= v then
            Some (Printf.sprintf "source %d: indices not ascending" i)
          else if Index_set.mem seen v then
            Some (Printf.sprintf "static index %d allocated twice" v)
          else begin
            Index_set.add seen v ();
            walk (j + 1)
          end
      in
      if Array.length idx = 0 then
        Some (Printf.sprintf "source %d has no static index" i)
      else walk 0
    in
    let rec go i =
      if i >= num_sources then Ok ()
      else
        match check_source i p.static_indices.(i) with
        | Some e -> Error e
        | None -> go (i + 1)
    in
    go 0
  end

let nu p i = Array.length p.static_indices.(i)

type allocation = Round_robin | Contiguous | Weighted

(* Divide q leaves in proportion to per-source peak load, at least one
   each, largest remainders first. *)
let weighted_shares inst ~q =
  let z = inst.Instance.num_sources in
  let load i =
    List.fold_left
      (fun acc c ->
        acc
        +. float_of_int (c.Message.cls_burst * Phy.tx_bits inst.Instance.phy c.Message.cls_bits)
           /. float_of_int c.Message.cls_window)
      0.
      (Instance.classes_of_source inst i)
  in
  let loads = Array.init z load in
  let total = Array.fold_left ( +. ) 0. loads in
  let shares = Array.make z 1 in
  let spare = q - z in
  if total > 0. && spare > 0 then begin
    let ideal = Array.map (fun l -> float_of_int spare *. l /. total) loads in
    let floors = Array.map int_of_float ideal in
    Array.iteri (fun i f -> shares.(i) <- shares.(i) + f) floors;
    let used = Array.fold_left ( + ) 0 floors in
    (* Hand the leftover leaves to the largest remainders. *)
    let remainders =
      Array.to_list
        (Array.mapi (fun i x -> (x -. float_of_int floors.(i), i)) ideal)
    in
    let by_remainder = List.sort (fun a b -> compare b a) remainders in
    List.iteri
      (fun rank (_, i) -> if rank < spare - used then shares.(i) <- shares.(i) + 1)
      by_remainder
  end;
  shares

let allocate inst ~allocation ~q =
  let z = inst.Instance.num_sources in
  match allocation with
  | Round_robin ->
    let per = q / z in
    Array.init z (fun i -> Array.init per (fun j -> (j * z) + i))
  | Contiguous ->
    let per = q / z in
    Array.init z (fun i -> Array.init per (fun j -> (i * per) + j))
  | Weighted ->
    let shares = weighted_shares inst ~q in
    let next = ref 0 in
    Array.map
      (fun n ->
        let block = Array.init n (fun j -> !next + j) in
        next := !next + n;
        block)
      shares

let default ?(indices_per_source = 1) ?(time_leaves = 64) ?(branching = 4)
    ?(allocation = Round_robin) inst =
  if indices_per_source < 1 then
    invalid_arg "Ddcr_params.default: indices_per_source < 1";
  if branching < 2 then invalid_arg "Ddcr_params.default: branching < 2";
  let z = inst.Instance.num_sources in
  let m = branching in
  (* Round the requested leaf count up to the next power of m. *)
  let time_leaves =
    if time_leaves < m then m
    else begin
      let rec up p = if p >= time_leaves then p else up (p * m) in
      up m
    end
  in
  let needed = max m (z * indices_per_source) in
  let rec tree size = if size >= needed then size else tree (size * m) in
  let q = tree m in
  (* Fill the tree: idle leaves cost search slots without carrying
     anything, and a larger ν_i lets a source drain more of a burst per
     static search (v(M) shrinks in the FCs). *)
  let static_indices = allocate inst ~allocation ~q in
  let slot = inst.Instance.phy.Phy.slot_bits in
  let max_wire =
    List.fold_left
      (fun acc c -> max acc (Phy.tx_bits inst.Instance.phy c.Message.cls_bits))
      1 (Instance.classes inst)
  in
  let max_deadline =
    List.fold_left
      (fun acc c -> max acc c.Message.cls_deadline)
      1 (Instance.classes inst)
  in
  (* Two dimensioning constraints on the class width c:
     - a deadline class should hold roughly one static search of the
       sources' worth of traffic (q contention slots plus two maximal
       frames), and
     - the scheduling horizon c·F must cover the largest relative
       deadline, or fresh messages compute a time index beyond F − 1
       and are shut out of time tree searches until their deadline
       draws near (the channel-idleness pathology of Section 3.2). *)
  let c_search = (slot * q) + (2 * max_wire) in
  let c_horizon = Int_math.cdiv max_deadline (time_leaves - 2) in
  let c = max c_search c_horizon in
  {
    time_m = m;
    time_leaves;
    class_width = c;
    alpha = c;
    theta = 0;
    static_m = m;
    static_leaves = q;
    static_indices;
    burst_bits = 0;
  }

let with_burst p bits =
  if bits < 0 then invalid_arg "Ddcr_params.with_burst: negative";
  { p with burst_bits = bits }

let with_theta p th =
  if th < 0 then invalid_arg "Ddcr_params.with_theta: negative";
  { p with theta = th }

let horizon_classes p = p.class_width * p.time_leaves

(* Canonical JSON codec (fixed key order) — repro artifacts embed a
   parameter override so a model-checker counterexample seeded by a
   pathological configuration replays against those exact parameters. *)
module Json = Rtnet_util.Json

let to_json p =
  Json.Obj
    [
      ("time_m", Json.Int p.time_m);
      ("time_leaves", Json.Int p.time_leaves);
      ("class_width", Json.Int p.class_width);
      ("alpha", Json.Int p.alpha);
      ("theta", Json.Int p.theta);
      ("static_m", Json.Int p.static_m);
      ("static_leaves", Json.Int p.static_leaves);
      ( "static_indices",
        Json.List
          (Array.to_list
             (Array.map
                (fun idx ->
                  Json.List
                    (Array.to_list (Array.map (fun v -> Json.Int v) idx)))
                p.static_indices)) );
      ("burst_bits", Json.Int p.burst_bits);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let int_field key = Result.bind (Json.field key j) Json.get_int in
  let* time_m = int_field "time_m" in
  let* time_leaves = int_field "time_leaves" in
  let* class_width = int_field "class_width" in
  let* alpha = int_field "alpha" in
  let* theta = int_field "theta" in
  let* static_m = int_field "static_m" in
  let* static_leaves = int_field "static_leaves" in
  let* burst_bits = int_field "burst_bits" in
  let* rows =
    Result.bind (Json.field "static_indices" j)
      (Json.list_of (Json.list_of Json.get_int))
  in
  let static_indices = Array.of_list (List.map Array.of_list rows) in
  let p =
    {
      time_m;
      time_leaves;
      class_width;
      alpha;
      theta;
      static_m;
      static_leaves;
      static_indices;
      burst_bits;
    }
  in
  (* Decoded parameters are validated at the boundary, with the same
     diagnostics the constructors raise. *)
  let* () = validate p ~num_sources:(Array.length static_indices) in
  Ok p

let pp fmt p =
  Format.fprintf fmt
    "ddcr(time %d^: F=%d c=%d α=%d θ=%d burst=%d; static %d^: q=%d, ν=[%s])"
    p.time_m p.time_leaves p.class_width p.alpha p.theta p.burst_bits
    p.static_m p.static_leaves
    (String.concat ","
       (Array.to_list (Array.map (fun a -> string_of_int (Array.length a)) p.static_indices)))
