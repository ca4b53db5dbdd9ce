module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Decompose = Rtnet_core.Decompose
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility

type hop = {
  h_segment : string;
  h_cls : Message.cls;
  h_budget : int;
  h_bound : float;
  h_feasible : bool;
  h_bridge : Topo.bridge option;
}

type eflow = {
  ef_flow : Topo.flow;
  ef_deadline : int;
  ef_hops : hop list;
  ef_error : string option;
  ef_admitted : bool;
}

type t = {
  e_topo : Topo.t;
  e_policy : Decompose.policy;
  e_order : string list;
  e_levels : string list list;
  e_instances : (string * Instance.t) list;
  e_params : (string * Ddcr_params.t) list;
  e_reports : (string * Feasibility.report) list;
  e_flows : eflow list;
  e_admitted : bool;
  e_by_name : (string, Instance.t * Ddcr_params.t) Hashtbl.t;
}

(* Static route of one flow, resolved once [Topo.route_errors] came
   back empty (so every lookup below is total). *)
type route = {
  rt_flow : Topo.flow;
  rt_origin_cls : Message.cls;
  rt_origin_law : Rtnet_workload.Arrival.law;
  rt_bridges : Topo.bridge list;  (* bridge into hop [i] at position [i-1] *)
}

let routes topo =
  let find_segment = Topo.segment_lookup topo
  and find_bridge = Topo.find_bridge topo in
  List.map
    (fun (f : Topo.flow) ->
      let origin = List.hd f.Topo.fl_path in
      let seg = Option.get (find_segment origin) in
      let cls, law =
        Option.get
          (Array.find_opt
             (fun (c, _) -> c.Message.cls_id = f.Topo.fl_cls)
             seg.Topo.sg_instance.Instance.classes)
      in
      let rec bridges = function
        | a :: (b :: _ as rest) ->
          Option.get (find_bridge ~from_:a ~to_:b) :: bridges rest
        | [ _ ] | [] -> []
      in
      {
        rt_flow = f;
        rt_origin_cls = cls;
        rt_origin_law = law;
        rt_bridges = bridges f.Topo.fl_path;
      })
    topo.Topo.tp_flows

let delays rt = List.map (fun b -> b.Topo.br_latency) rt.rt_bridges

(* Provisional pass-1 split: whatever of [d(M)] remains after the
   bridge delays, divided equally (never below 1 per hop, so even a
   hopeless flow yields well-formed classes to price). *)
let equal_split ~k ~available =
  let available = max k available in
  let q = available / k and r = available mod k in
  List.init k (fun i -> q + if i < r then 1 else 0)

(* Elaborate the per-segment instances for the given per-flow budget
   vectors.  Returns the instances (declaration order) and the map
   [(flow name, hop index) -> (segment, elaborated class)].  Forwarded
   classes get fresh ids above the segment's maximum, assigned in flow
   declaration order, so elaboration is deterministic. *)
let build topo routed =
  let bridges_into = Topo.bridges_into topo in
  let overrides = Hashtbl.create 8 in
  let additions = Hashtbl.create 8 in
  let add_addition seg x =
    let cur = Option.value ~default:[] (Hashtbl.find_opt additions seg) in
    Hashtbl.replace additions seg (x :: cur)
  in
  List.iter
    (fun (rt, budgets) ->
      let path = rt.rt_flow.Topo.fl_path in
      Hashtbl.replace overrides
        (List.hd path, rt.rt_origin_cls.Message.cls_id)
        (List.nth budgets 0);
      List.iteri
        (fun i seg ->
          if i > 0 then
            add_addition seg
              (rt, i, List.nth rt.rt_bridges (i - 1), List.nth budgets i))
        path)
    routed;
  let hop_cls = Hashtbl.create 8 in
  List.iter
    (fun (rt, budgets) ->
      let origin = List.hd rt.rt_flow.Topo.fl_path in
      let c =
        { rt.rt_origin_cls with Message.cls_deadline = List.nth budgets 0 }
      in
      Hashtbl.replace hop_cls (rt.rt_flow.Topo.fl_name, 0) (origin, c))
    routed;
  let instances =
    List.map
      (fun (s : Topo.segment) ->
        let name = s.Topo.sg_name in
        let base =
          List.map
            (fun (c, law) ->
              match Hashtbl.find_opt overrides (name, c.Message.cls_id) with
              | Some b -> ({ c with Message.cls_deadline = b }, law)
              | None -> (c, law))
            (Array.to_list s.Topo.sg_instance.Instance.classes)
        in
        let max_id =
          List.fold_left (fun acc (c, _) -> max acc c.Message.cls_id) (-1) base
        in
        let adds =
          List.mapi
            (fun k (rt, i, bridge, budget) ->
              let c =
                {
                  rt.rt_origin_cls with
                  Message.cls_id = max_id + 1 + k;
                  cls_name = rt.rt_flow.Topo.fl_name ^ "@" ^ name;
                  cls_source = bridge.Topo.br_station;
                  cls_deadline = budget;
                }
              in
              Hashtbl.replace hop_cls (rt.rt_flow.Topo.fl_name, i) (name, c);
              (c, rt.rt_origin_law))
            (List.rev (Option.value ~default:[] (Hashtbl.find_opt additions name)))
        in
        let num_sources =
          List.fold_left
            (fun acc (b : Topo.bridge) -> max acc (b.Topo.br_station + 1))
            s.Topo.sg_instance.Instance.num_sources (bridges_into name)
        in
        ( name,
          Instance.create_exn ~name ~phy:s.Topo.sg_instance.Instance.phy
            ~num_sources (base @ adds) ))
      topo.Topo.tp_segments
  in
  (instances, hop_cls)

let price instances =
  List.map
    (fun (name, inst) ->
      let p = Ddcr_params.default inst in
      (name, p, Feasibility.check p inst))
    instances

(* The class reports of one pricing pass, by segment and class id (of
   two segments sharing a name, the first, as a scan would find it). *)
let class_reports priced =
  let by_seg = Hashtbl.create 64 in
  List.iter
    (fun (seg, _, rep) ->
      if not (Hashtbl.mem by_seg seg) then begin
        let by_id = Hashtbl.create 16 in
        List.iter
          (fun cr ->
            Hashtbl.replace by_id cr.Feasibility.cr_cls.Message.cls_id cr)
          rep.Feasibility.per_class;
        Hashtbl.add by_seg seg by_id
      end)
    priced;
  fun seg cls_id -> Hashtbl.find (Hashtbl.find by_seg seg) cls_id

let elaborate ?(policy = Decompose.Proportional) topo =
  match Topo.route_errors topo @ Topo.fault_errors topo with
  | _ :: _ as errs -> Error (String.concat "; " errs)
  | [] -> (
    match (Topo.toposort topo, Topo.levels topo) with
    | Error e, _ | _, Error e -> Error e
    | Ok order, Ok levels ->
      let provisional =
        List.map
          (fun rt ->
            let k = List.length rt.rt_flow.Topo.fl_path in
            let d = rt.rt_origin_cls.Message.cls_deadline in
            let avail = d - List.fold_left ( + ) 0 (delays rt) in
            (rt, equal_split ~k ~available:avail))
          (routes topo)
      in
      let insts1, hops1 = build topo provisional in
      let class_report = class_reports (price insts1) in
      let final =
        List.map
          (fun (rt, fallback) ->
            let bounds =
              List.mapi
                (fun i _ ->
                  let seg, c =
                    Hashtbl.find hops1 (rt.rt_flow.Topo.fl_name, i)
                  in
                  (class_report seg c.Message.cls_id).Feasibility.cr_bound)
                rt.rt_flow.Topo.fl_path
            in
            match
              Decompose.split ~policy
                ~deadline:rt.rt_origin_cls.Message.cls_deadline
                ~bridge_delays:(delays rt) ~bounds
            with
            | Ok budgets -> (rt, budgets, None)
            | Error e -> (rt, fallback, Some e))
          provisional
      in
      let insts2, hops2 =
        build topo (List.map (fun (rt, budgets, _) -> (rt, budgets)) final)
      in
      let priced2 = price insts2 in
      let class_report = class_reports priced2 in
      let e_flows =
        List.map
          (fun (rt, budgets, err) ->
            let hops =
              List.mapi
                (fun i _ ->
                  let seg, c =
                    Hashtbl.find hops2 (rt.rt_flow.Topo.fl_name, i)
                  in
                  let cr = class_report seg c.Message.cls_id in
                  {
                    h_segment = seg;
                    h_cls = c;
                    h_budget = List.nth budgets i;
                    h_bound = cr.Feasibility.cr_bound;
                    h_feasible = cr.Feasibility.cr_feasible;
                    h_bridge =
                      (if i = 0 then None
                       else Some (List.nth rt.rt_bridges (i - 1)));
                  })
                rt.rt_flow.Topo.fl_path
            in
            {
              ef_flow = rt.rt_flow;
              ef_deadline = rt.rt_origin_cls.Message.cls_deadline;
              ef_hops = hops;
              ef_error = err;
              ef_admitted =
                err = None && List.for_all (fun h -> h.h_feasible) hops;
            })
          final
      in
      let e_by_name = Hashtbl.create (2 * List.length priced2) in
      List.iter2
        (fun (n, inst) (_, p, _) ->
          if not (Hashtbl.mem e_by_name n) then
            Hashtbl.add e_by_name n (inst, p))
        insts2 priced2;
      Ok
        {
          e_topo = topo;
          e_policy = policy;
          e_order = order;
          e_levels = levels;
          e_instances = insts2;
          e_params = List.map (fun (n, p, _) -> (n, p)) priced2;
          e_reports = List.map (fun (n, _, r) -> (n, r)) priced2;
          e_flows;
          e_admitted = List.for_all (fun f -> f.ef_admitted) e_flows;
          e_by_name;
        })

let instance_of t name = fst (Hashtbl.find t.e_by_name name)
let params_of t name = snd (Hashtbl.find t.e_by_name name)

let pp_report fmt t =
  Format.fprintf fmt "@[<v>topology %s: %s (decomposition %s)@,"
    t.e_topo.Topo.tp_name
    (if t.e_admitted then "ADMITTED" else "REJECTED")
    (Decompose.policy_label t.e_policy);
  List.iter
    (fun (name, rep) ->
      Format.fprintf fmt "  segment %-10s worst margin %6.3f  %s@," name
        rep.Feasibility.worst_margin
        (if rep.Feasibility.feasible then "feasible" else "INFEASIBLE"))
    t.e_reports;
  List.iter
    (fun f ->
      Format.fprintf fmt "  flow %s: d(M) = %d bit-times, %s@,"
        f.ef_flow.Topo.fl_name f.ef_deadline
        (if f.ef_admitted then "admitted" else "rejected");
      (match f.ef_error with
      | Some e -> Format.fprintf fmt "    decomposition failed: %s@," e
      | None -> ());
      List.iteri
        (fun i h ->
          Format.fprintf fmt
            "    hop %d on %-10s budget %8d  B_DDCR %10.1f  headroom %10.1f  \
             %s@,"
            i h.h_segment h.h_budget h.h_bound
            (float_of_int h.h_budget -. h.h_bound)
            (if h.h_feasible then "ok" else "OVER BUDGET");
          match h.h_bridge with
          | Some b ->
            Format.fprintf fmt "      via bridge %s (station %d, latency %d)@,"
              b.Topo.br_name b.Topo.br_station b.Topo.br_latency
          | None -> ())
        f.ef_hops)
    t.e_flows;
  Format.fprintf fmt "@]"
