module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Phy = Rtnet_channel.Phy
module Run = Rtnet_stats.Run

type assignment = {
  original : Instance.t;
  buses : Instance.t array;
  bus_of_class : (int * int) list;
}

let class_load phy (c, _) =
  float_of_int (c.Message.cls_burst * Phy.tx_bits phy c.Message.cls_bits)
  /. float_of_int c.Message.cls_window

let partition inst ~buses =
  if buses < 1 then Error "need at least one bus"
  else begin
    let classes = Array.to_list inst.Instance.classes in
    if List.length classes < buses then
      Error "fewer classes than busses"
    else begin
      let phy = inst.Instance.phy in
      (* Explicit total order: heaviest load first, ties broken by
         class id ascending.  Together with the worst-fit tie-break
         below (equal-load busses resolve to the lowest index) the
         partition is a pure function of the class set — independent of
         input order, float comparison quirks and sort stability — as
         topology fingerprints require. *)
      let heaviest_first =
        List.sort
          (fun ((ca, _) as a) ((cb, _) as b) ->
            match compare (class_load phy b) (class_load phy a) with
            | 0 -> compare ca.Message.cls_id cb.Message.cls_id
            | c -> c)
          classes
      in
      let loads = Array.make buses 0. in
      let members = Array.make buses [] in
      let assigned =
        List.map
          (fun ((c, _) as cl) ->
            (* Strict [<]: on equal load the lowest bus index wins. *)
            let lightest = ref 0 in
            Array.iteri
              (fun i l -> if l < loads.(!lightest) then lightest := i)
              loads;
            loads.(!lightest) <- loads.(!lightest) +. class_load phy cl;
            members.(!lightest) <- cl :: members.(!lightest);
            (c.Message.cls_id, !lightest))
          heaviest_first
      in
      let bus_instances =
        Array.mapi
          (fun i cls ->
            Instance.create_exn
              ~name:(Printf.sprintf "%s/bus%d" inst.Instance.name i)
              ~phy ~num_sources:inst.Instance.num_sources (List.rev cls))
          members
      in
      Ok
        {
          original = inst;
          buses = bus_instances;
          bus_of_class = List.sort compare assigned;
        }
    end
  end

let partition_exn inst ~buses =
  match partition inst ~buses with
  | Ok a -> a
  | Error e -> invalid_arg ("Multi_bus.partition_exn: " ^ e)

type report = {
  per_bus : (Ddcr_params.t * Feasibility.report) array;
  feasible : bool;
  worst_margin : float;
}

let check a =
  let per_bus =
    Array.map
      (fun bus ->
        let params = Ddcr_params.default bus in
        (params, Feasibility.check params bus))
      a.buses
  in
  {
    per_bus;
    feasible = Array.for_all (fun (_, r) -> r.Feasibility.feasible) per_bus;
    worst_margin =
      Array.fold_left
        (fun acc (_, r) -> max acc r.Feasibility.worst_margin)
        0. per_bus;
  }

let run ?(seed = 1) a ~horizon =
  let outcomes =
    List.map
      (fun bus ->
        let params = Ddcr_params.default bus in
        Ddcr.run ~seed params bus ~horizon)
      (Array.to_list a.buses)
  in
  Run.merge
    ~protocol:(Printf.sprintf "csma-ddcr/%d-bus" (Array.length a.buses))
    ~horizon outcomes

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun i (params, rep) ->
      Format.fprintf fmt "bus %d: margin %.3f (%a)@," i
        rep.Feasibility.worst_margin Ddcr_params.pp params)
    r.per_bus;
  Format.fprintf fmt "all busses feasible: %b (worst margin %.3f)@]" r.feasible
    r.worst_margin

let dimension ?(max_buses = 4) inst =
  if max_buses < 1 then invalid_arg "Multi_bus.dimension: max_buses < 1";
  let classes = Array.length inst.Instance.classes in
  let rec try_n n =
    if n > max_buses || n > classes then None
    else begin
      match partition inst ~buses:n with
      | Error _ -> None
      | Ok a ->
        let r = check a in
        if r.feasible then Some (a, r) else try_n (n + 1)
    end
  in
  try_n 1
