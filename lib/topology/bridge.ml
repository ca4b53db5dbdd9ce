module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Np_edf_fc = Rtnet_edf.Np_edf_fc
module Fault_plan = Rtnet_channel.Fault_plan

type verdict = {
  bv_bridge : string;
  bv_classes : int;
  bv_utilization : float;
  bv_feasible : bool;
  bv_margin : float;
  bv_crash_window : int;
}

(* Worst scheduled outage of the bridge station, per the downstream
   segment's fault plan: while crashed the bridge neither drains its
   queue nor contends, so the fault-aware test must fit each forwarded
   class into [deadline - window]. *)
let worst_window find_segment (b : Topo.bridge) =
  match find_segment b.Topo.br_to with
  | Some { Topo.sg_fault = Some sp; _ } ->
    Fault_plan.max_outage sp ~source:b.Topo.br_station
  | Some _ | None -> 0

(* The forwarded (class, law) pairs each bridge injects downstream, by
   bridge name: every flow hop reached through the bridge, in flow and
   path order, with the law looked up in the elaborated downstream
   instance (the first of a name, as {!Admit.instance_of} finds it). *)
let crossings (e : Admit.t) =
  let laws = Hashtbl.create 64 in
  List.iter
    (fun (seg, (inst : Instance.t)) ->
      if not (Hashtbl.mem laws seg) then begin
        let by_id = Hashtbl.create 16 in
        Array.iter
          (fun ((c : Message.cls), law) ->
            Hashtbl.replace by_id c.Message.cls_id law)
          inst.Instance.classes;
        Hashtbl.add laws seg by_id
      end)
    e.Admit.e_instances;
  let by_bridge = Hashtbl.create 16 in
  List.iter
    (fun (f : Admit.eflow) ->
      List.iter
        (fun (h : Admit.hop) ->
          Option.iter
            (fun (hb : Topo.bridge) ->
              let law =
                Hashtbl.find
                  (Hashtbl.find laws h.Admit.h_segment)
                  h.Admit.h_cls.Message.cls_id
              in
              Hashtbl.replace by_bridge hb.Topo.br_name
                ((h.Admit.h_cls, law)
                :: Option.value ~default:[]
                     (Hashtbl.find_opt by_bridge hb.Topo.br_name)))
            h.Admit.h_bridge)
        f.Admit.ef_hops)
    e.Admit.e_flows;
  fun (b : Topo.bridge) ->
    List.rev
      (Option.value ~default:[] (Hashtbl.find_opt by_bridge b.Topo.br_name))

let check ?(fault_aware = false) (e : Admit.t) =
  let find_segment = Topo.segment_lookup e.Admit.e_topo in
  let crossing = crossings e in
  List.map
    (fun (b : Topo.bridge) ->
      let window = if fault_aware then worst_window find_segment b else 0 in
      match crossing b with
      | [] ->
        {
          bv_bridge = b.Topo.br_name;
          bv_classes = 0;
          bv_utilization = 0.0;
          bv_feasible = true;
          bv_margin = 0.0;
          bv_crash_window = window;
        }
      | classes ->
        let shortened =
          List.map
            (fun (c, law) ->
              ({ c with Message.cls_deadline = c.Message.cls_deadline - window },
               law))
            classes
        in
        if
          List.exists
            (fun ((c : Message.cls), _) -> c.Message.cls_deadline <= 0)
            shortened
        then
          (* The outage alone swallows a forwarded deadline: no queue
             discipline can save it, so don't even build the synthetic
             instance (its constructor would reject the class). *)
          {
            bv_bridge = b.Topo.br_name;
            bv_classes = List.length classes;
            bv_utilization = 0.0;
            bv_feasible = false;
            bv_margin = infinity;
            bv_crash_window = window;
          }
        else
          let renumbered =
            List.mapi
              (fun i (c, law) ->
                ({ c with Message.cls_id = i; cls_source = 0 }, law))
              shortened
          in
          let downstream = Admit.instance_of e b.Topo.br_to in
          let inst =
            Instance.create_exn
              ~name:("bridge/" ^ b.Topo.br_name)
              ~phy:downstream.Instance.phy ~num_sources:1 renumbered
          in
          let v = Np_edf_fc.check inst in
          {
            bv_bridge = b.Topo.br_name;
            bv_classes = List.length classes;
            bv_utilization = Np_edf_fc.utilization inst;
            bv_feasible = v.Np_edf_fc.np_feasible;
            bv_margin = v.Np_edf_fc.np_margin;
            bv_crash_window = window;
          })
    e.Admit.e_topo.Topo.tp_bridges

let pp_verdict fmt v =
  Format.fprintf fmt
    "bridge %-10s %2d forwarded classes  util %5.3f  margin %6.3f  %s%s"
    v.bv_bridge v.bv_classes v.bv_utilization v.bv_margin
    (if v.bv_feasible then "ok" else "OVERLOADED")
    (if v.bv_crash_window > 0 then
       Printf.sprintf "  (crash window %d)" v.bv_crash_window
     else "")
