module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Phy = Rtnet_channel.Phy
module Np_edf_fc = Rtnet_edf.Np_edf_fc
module D = Diagnostic

let s32 = "Section 3.2"
let s43 = "Section 4.3"

let structural p inst =
  match
    Ddcr_params.validate p ~num_sources:inst.Instance.num_sources
  with
  | Ok () -> []
  | Error e -> [ D.error ~rule_id:"CFG-PARAMS" ~subject:"params" ~paper_ref:s32 e ]

let horizon p inst =
  let horizon = Ddcr_params.horizon_classes p in
  let worst =
    List.fold_left
      (fun acc (c : Message.cls) -> max acc c.Message.cls_deadline)
      0 (Instance.classes inst)
  in
  if worst <= horizon then []
  else
    let msg =
      Printf.sprintf
        "scheduling horizon c*F = %d bit-times does not cover the largest \
         relative deadline %d: fresh messages of that class are shut out of \
         time trees%s"
        horizon worst
        (if p.Ddcr_params.theta > 0 then
           " (compressed time is on, so reft eventually catches up)"
         else " and compressed time is off (theta = 0)")
    in
    let mk = if p.Ddcr_params.theta > 0 then D.warning else D.error in
    [ mk ~rule_id:"CFG-HORIZON" ~subject:"time tree" ~paper_ref:s32 msg ]

let alpha p =
  let { Ddcr_params.alpha; class_width; _ } = p in
  let horizon = Ddcr_params.horizon_classes p in
  if alpha >= horizon && horizon > 0 then
    [
      D.error ~rule_id:"CFG-ALPHA" ~subject:"alpha" ~paper_ref:s32
        (Printf.sprintf
           "class-mapping offset alpha = %d is at least the scheduling \
            horizon %d: every message maps below deadline class 0"
           alpha horizon);
    ]
  else if alpha > class_width then
    [
      D.warning ~rule_id:"CFG-ALPHA" ~subject:"alpha" ~paper_ref:s32
        (Printf.sprintf
           "alpha = %d exceeds the class width c = %d: messages are steered \
            more than one full class early"
           alpha class_width);
    ]
  else []

let slot p inst =
  let x = inst.Instance.phy.Phy.slot_bits in
  if p.Ddcr_params.class_width < x then
    [
      D.warning ~rule_id:"CFG-SLOT" ~subject:"class width" ~paper_ref:s43
        (Printf.sprintf
           "deadline-class width c = %d bit-times is finer than the medium's \
            contention slot x = %d: classes are indistinguishable at slot \
            granularity"
           p.Ddcr_params.class_width x);
    ]
  else []

let burst p inst =
  let b = p.Ddcr_params.burst_bits in
  if b <= 0 then []
  else
    let smallest =
      List.fold_left
        (fun acc (c : Message.cls) ->
          min acc (Phy.tx_bits inst.Instance.phy c.Message.cls_bits))
        max_int (Instance.classes inst)
    in
    if smallest > b then
      [
        D.warning ~rule_id:"CFG-BURST" ~subject:"burst budget"
          ~paper_ref:"Section 5"
          (Printf.sprintf
             "bursting budget %d bits is smaller than the smallest on-wire \
              frame (%d bits): the budget can never carry a frame"
             b smallest);
      ]
    else []

(* Advisory: configurations this small are within reach of the
   explicit-state model checker, which proves the invariants for EVERY
   fault schedule within its bounds instead of sampling some.  Depth of
   an m-ary tree with q leaves = log_m q. *)
let tree_depth m leaves =
  let rec go d n = if n >= leaves then d else go (d + 1) (n * m) in
  go 0 1

let model_scope p inst =
  let z = inst.Instance.num_sources in
  let sd = tree_depth p.Ddcr_params.static_m p.Ddcr_params.static_leaves in
  if z <= 3 && sd <= 2 then
    [
      D.info ~rule_id:"CFG-MODEL" ~subject:inst.Instance.name
        ~paper_ref:"Section 4 correctness properties"
        (Printf.sprintf
           "%d source(s), static tree depth %d: small enough for exhaustive \
            bounded verification — run `ddcr_model check` to prove the \
            invariants over every fault schedule within the bounds"
           z sd);
    ]
  else []

let overload inst =
  let u = Instance.peak_utilization inst in
  if u > 1.0 then
    [
      D.error ~rule_id:"CFG-OVERLOAD" ~subject:inst.Instance.name
        ~paper_ref:"Section 2.2"
        (Printf.sprintf
           "peak offered load %.3f exceeds channel capacity: no protocol can \
            be feasible"
           u);
    ]
  else []

let feasibility ~strict ~oracle_ok p inst =
  let report = Feasibility.check p inst in
  if report.Feasibility.feasible then
    [
      D.info ~rule_id:"FEAS-MARGIN" ~subject:inst.Instance.name ~paper_ref:s43
        (Printf.sprintf
           "provably feasible: B_DDCR <= d(M) for every class (worst margin \
            %.3f)"
           report.Feasibility.worst_margin);
    ]
  else
    let mk =
      (* The paper bound is conservative (peak-load adversary, worst-case
         tree searches).  A workload the centralized NP-EDF oracle can
         schedule may still fail it; that gap is the provable price of
         distribution, a warning unless the caller demands proof. *)
      if strict || not oracle_ok then D.error else D.warning
    in
    List.filter_map
      (fun cr ->
        if cr.Feasibility.cr_feasible then None
        else
          let cls = cr.Feasibility.cr_cls in
          Some
            (mk ~rule_id:"FEAS-BDDCR" ~subject:cls.Message.cls_name
               ~paper_ref:s43
               (Printf.sprintf
                  "B_DDCR = %.0f bit-times exceeds d(M) = %d (r=%d u=%d v=%d, \
                   %.1f search slots)%s"
                  cr.Feasibility.cr_bound cls.Message.cls_deadline
                  cr.Feasibility.cr_r cr.Feasibility.cr_u cr.Feasibility.cr_v
                  cr.Feasibility.cr_search_slots
                  (if oracle_ok && not strict then
                     "; the centralized oracle schedules this workload, so \
                      the gap is the price of distribution"
                   else ""))))
      report.Feasibility.per_class

let check ?(strict = false) p inst =
  let structural = structural p inst in
  let shared = overload inst in
  if structural <> [] then structural @ shared
  else
    let oracle = Np_edf_fc.check inst in
    let oracle_diag =
      if oracle.Np_edf_fc.np_feasible then []
      else if Instance.peak_utilization inst > 1.0 then
        (* CFG-OVERLOAD already reports the root cause. *)
        []
      else
        [
          D.error ~rule_id:"CFG-ORACLE" ~subject:inst.Instance.name
            ~paper_ref:"Section 3.1"
            (Printf.sprintf
               "even the centralized NP-EDF oracle misses deadlines (margin \
                %.3f at t = %d): the workload is infeasible for any protocol \
                on this medium"
               oracle.Np_edf_fc.np_margin oracle.Np_edf_fc.critical_t);
        ]
    in
    shared @ horizon p inst @ alpha p @ slot p inst @ burst p inst
    @ model_scope p inst @ oracle_diag
    @ feasibility ~strict ~oracle_ok:oracle.Np_edf_fc.np_feasible p inst

(* Fault-plan lint ("CFG-FAULT"): campaign specs carrying a fault plan
   are checked against the horizon before any worker runs, plus
   heuristics for plans that are legal but probably not what the author
   meant. *)
let check_fault ?horizon ?stations plan =
  let subject = Rtnet_channel.Fault_plan.label plan in
  let ref_ = "fault model; Section 2.1 assumptions" in
  let validity =
    match
      Result.bind (Rtnet_channel.Fault_plan.validate ?horizon plan) (fun () ->
          match stations with
          | None -> Ok ()
          | Some stations ->
            Rtnet_channel.Fault_plan.check_stations ~stations plan)
    with
    | Ok () -> []
    | Error e -> [ D.error ~rule_id:"CFG-FAULT" ~subject ~paper_ref:ref_ e ]
  in
  let heuristics =
    (match plan.Rtnet_channel.Fault_plan.sp_garble with
    | Some (Rtnet_channel.Fault_plan.Gilbert_elliott { rate_good; rate_bad; _ })
      when rate_bad < rate_good ->
      [
        D.warning ~rule_id:"CFG-FAULT" ~subject ~paper_ref:ref_
          (Printf.sprintf
             "Gilbert–Elliott bad-state rate %.2f is below the good-state \
              rate %.2f — states are probably swapped"
             rate_bad rate_good);
      ]
    | _ -> [])
    @
    if plan.Rtnet_channel.Fault_plan.sp_misperception > 0.5 then
      [
        D.warning ~rule_id:"CFG-FAULT" ~subject ~paper_ref:ref_
          (Printf.sprintf
             "misperception rate %.2f makes the majority view wrong more \
              often than right; divergence recovery will follow the \
              misperceived consensus"
             plan.Rtnet_channel.Fault_plan.sp_misperception);
      ]
    else []
  in
  validity @ heuristics

(* Admission-trace lint ("CFG-ADMIT"): churn traces for the admission
   service are checked by replaying them through a scratch engine, so
   every diagnostic refers to the state the service would actually be
   in.  Two rules ride on the replay: re-adding a still-admitted flow
   id is a spec bug (the service will reject it, but the trace author
   almost certainly meant modify), and an accepted decision that
   leaves the binding class within one of its own frames of B_DDCR is
   running without slack — the next add of any consequence flips it. *)
let check_admit (tr : Rtnet_admit.Request.trace) =
  let module Req = Rtnet_admit.Request in
  let module Eng = Rtnet_admit.Engine in
  match
    Eng.create ~phy:tr.Req.tr_phy ~num_sources:tr.Req.tr_sources
      ~params:tr.Req.tr_params
  with
  | Error e ->
    [ D.error ~rule_id:"CFG-ADMIT" ~subject:"admit trace" ~paper_ref:s32 e ]
  | Ok eng ->
    let live : (string, Req.flow) Hashtbl.t = Hashtbl.create 32 in
    let diags = ref [] in
    let emit d = diags := d :: !diags in
    List.iteri
      (fun i req ->
        let id = Req.flow_id req in
        (match req with
        | Req.Add _ when Hashtbl.mem live id ->
          emit
            (D.error ~rule_id:"CFG-ADMIT-DUP" ~subject:id ~paper_ref:s43
               (Printf.sprintf
                  "request %d re-adds flow %s while it is still admitted \
                   (use modify to replace its parameters)"
                  i id))
        | _ -> ());
        let d = Eng.decide eng req in
        (match (d, req) with
        | Eng.Accepted _, (Req.Add f | Req.Modify f) ->
          Hashtbl.replace live id f
        | Eng.Accepted _, Req.Remove _ -> Hashtbl.remove live id
        | Eng.Rejected _, _ -> ());
        match d with
        | Eng.Accepted { binding = Some (cls, headroom) } ->
          let wire =
            match Hashtbl.find_opt live cls with
            | Some f -> Phy.tx_bits tr.Req.tr_phy f.Req.fl_bits
            | None -> 0
          in
          if headroom < float_of_int wire then
            emit
              (D.warning ~rule_id:"CFG-ADMIT-HEADROOM" ~subject:cls
                 ~paper_ref:s43
                 (Printf.sprintf
                    "after request %d (%s %s) the binding class %s has \
                     headroom %.1f bit-times — within one %d-bit on-wire \
                     frame of B_DDCR"
                    i (Req.op req) id cls headroom wire))
        | _ -> ())
      tr.Req.tr_requests;
    let summary =
      if !diags = [] then
        [
          D.info ~rule_id:"CFG-ADMIT" ~subject:"admit trace" ~paper_ref:s43
            (Printf.sprintf
               "replayed %d request(s): %d flow(s) admitted at the end, no \
                duplicate ids, binding headroom always at least one frame"
               (List.length tr.Req.tr_requests)
               (Eng.size eng));
        ]
      else []
    in
    List.rev !diags @ summary

(* Topology lint ("CFG-TOPO"): the federated counterpart of the
   per-segment passes.  Routing and acyclicity come first (elaboration
   presupposes them); on an elaborable topology every flow hop is
   priced against its decomposed budget and every bridge queue against
   the NP-EDF demand-bound oracle. *)
let check_topo ?policy topo =
  let module Topo = Rtnet_topology.Topo in
  let module Admit = Rtnet_topology.Admit in
  let module Bridge = Rtnet_topology.Bridge in
  let ref_topo = "Section 4.3, federated across segments" in
  let routing =
    List.map
      (fun e ->
        D.error ~rule_id:"CFG-TOPO" ~subject:topo.Topo.tp_name
          ~paper_ref:ref_topo e)
      (Topo.route_errors topo)
  in
  let cycle =
    match Topo.toposort topo with
    | Ok _ -> []
    | Error e ->
      [
        D.error ~rule_id:"CFG-TOPO" ~subject:topo.Topo.tp_name
          ~paper_ref:ref_topo e;
      ]
  in
  (* CFG-TOPO-FAULT: a fault plan referencing a station that exists on
     no segment (neither a declared source nor an incoming bridge
     station) is a spec bug, not a fault model. *)
  let faults =
    List.map
      (fun e ->
        D.error ~rule_id:"CFG-TOPO-FAULT" ~subject:topo.Topo.tp_name
          ~paper_ref:ref_topo e)
      (Topo.fault_errors topo)
  in
  if routing <> [] || cycle <> [] || faults <> [] then
    routing @ cycle @ faults
  else
    match Admit.elaborate ?policy topo with
    | Error e ->
      [
        D.error ~rule_id:"CFG-TOPO" ~subject:topo.Topo.tp_name
          ~paper_ref:ref_topo e;
      ]
    | Ok e ->
      let flow_diags =
        List.concat_map
          (fun (f : Admit.eflow) ->
            let name = f.Admit.ef_flow.Rtnet_topology.Topo.fl_name in
            (match f.Admit.ef_error with
            | Some err ->
              [
                D.error ~rule_id:"CFG-TOPO" ~subject:name ~paper_ref:ref_topo
                  err;
              ]
            | None -> [])
            @ List.concat
                (List.mapi
                   (fun i (h : Admit.hop) ->
                     if h.Admit.h_feasible then []
                     else
                       [
                         D.error ~rule_id:"CFG-TOPO" ~subject:name
                           ~paper_ref:ref_topo
                           (Printf.sprintf
                              "hop %d on segment %s: per-hop budget %d \
                               bit-times is below the hop's B_DDCR %.1f"
                              i h.Admit.h_segment h.Admit.h_budget
                              h.Admit.h_bound);
                       ])
                   f.Admit.ef_hops))
          e.Admit.e_flows
      in
      let verdicts = Bridge.check ~fault_aware:true e in
      let bridge_diags =
        List.filter_map
          (fun (v : Bridge.verdict) ->
            if v.Bridge.bv_feasible then None
            else
              Some
                (D.error ~rule_id:"CFG-TOPO" ~subject:v.Bridge.bv_bridge
                   ~paper_ref:"Section 3.1 (NP-EDF demand bound)"
                   (if v.Bridge.bv_crash_window > 0 then
                      Printf.sprintf
                        "bridge queue overloaded once its worst crash window \
                         (%d bit-times) is accounted: %d forwarded classes, \
                         demand-bound margin %.3f > 1"
                        v.Bridge.bv_crash_window v.Bridge.bv_classes
                        v.Bridge.bv_margin
                    else
                      Printf.sprintf
                        "bridge queue overloaded: %d forwarded classes, \
                         demand-bound margin %.3f > 1 — the relay cannot \
                         sustain the aggregate flow demand under NP-EDF"
                        v.Bridge.bv_classes v.Bridge.bv_margin)))
          verdicts
      in
      (* CFG-TOPO-FAULT heuristic: a crash window parking a segment's
         only inbound bridge for longer than a crossing flow's whole
         end-to-end slack cannot be absorbed downstream — every held
         chain of that flow will miss or be shed. *)
      let fault_diags =
        let into = Topo.bridges_into topo in
        List.concat_map
          (fun ((b : Topo.bridge), (v : Bridge.verdict)) ->
            let window = v.Bridge.bv_crash_window in
            let only_inbound =
              List.for_all
                (fun (b' : Topo.bridge) -> b'.Topo.br_name = b.Topo.br_name)
                (into b.Topo.br_to)
            in
            if window = 0 || not only_inbound then []
            else
              List.filter_map
                (fun (f : Admit.eflow) ->
                  let crosses =
                    List.exists
                      (fun (h : Admit.hop) ->
                        match h.Admit.h_bridge with
                        | Some hb -> hb.Topo.br_name = b.Topo.br_name
                        | None -> false)
                      f.Admit.ef_hops
                  in
                  if not crosses then None
                  else
                    let slack =
                      f.Admit.ef_deadline
                      - List.fold_left
                          (fun acc (h : Admit.hop) ->
                            acc
                            + int_of_float (ceil h.Admit.h_bound)
                            + (match h.Admit.h_bridge with
                              | Some hb -> hb.Topo.br_latency
                              | None -> 0))
                          0 f.Admit.ef_hops
                    in
                    if window <= slack then None
                    else
                      Some
                        (D.warning ~rule_id:"CFG-TOPO-FAULT"
                           ~subject:f.Admit.ef_flow.Topo.fl_name
                           ~paper_ref:ref_topo
                           (Printf.sprintf
                              "crash window of %d bit-times parks bridge %s \
                               — segment %s's only inbound bridge — longer \
                               than the flow's end-to-end slack (%d \
                               bit-times); held chains cannot recover \
                               downstream"
                              window b.Topo.br_name b.Topo.br_to (max slack 0))))
                e.Admit.e_flows)
          (List.combine topo.Topo.tp_bridges verdicts)
      in
      (* Local (non-flow) infeasibility predates the topology: the
         segment's own workload already violates Section 4.3.  Warn
         rather than error — CFG-TOPO is about the federation. *)
      let hop_ids =
        List.concat_map
          (fun (f : Admit.eflow) ->
            List.map
              (fun (h : Admit.hop) ->
                (h.Admit.h_segment, h.Admit.h_cls.Message.cls_id))
              f.Admit.ef_hops)
          e.Admit.e_flows
      in
      let local_diags =
        List.concat_map
          (fun (seg, rep) ->
            List.filter_map
              (fun (cr : Feasibility.class_report) ->
                if
                  cr.Feasibility.cr_feasible
                  || List.mem
                       (seg, cr.Feasibility.cr_cls.Message.cls_id)
                       hop_ids
                then None
                else
                  Some
                    (D.warning ~rule_id:"CFG-TOPO" ~subject:seg
                       ~paper_ref:s43
                       (Printf.sprintf
                          "local class %s is infeasible on its own segment \
                           (B_DDCR %.1f > d = %d) independently of the \
                           federation"
                          cr.Feasibility.cr_cls.Message.cls_name
                          cr.Feasibility.cr_bound
                          cr.Feasibility.cr_cls.Message.cls_deadline)))
              rep.Feasibility.per_class)
          e.Admit.e_reports
      in
      let summary =
        if flow_diags = [] && bridge_diags = [] then
          [
            D.info ~rule_id:"CFG-TOPO" ~subject:topo.Topo.tp_name
              ~paper_ref:ref_topo
              (Printf.sprintf
                 "admitted: %d flow(s) across %d segment(s) (%d aggregate \
                  sources); every hop budget covers its B_DDCR and every \
                  bridge queue is schedulable"
                 (List.length topo.Topo.tp_flows)
                 (List.length topo.Topo.tp_segments)
                 (Topo.aggregate_sources topo));
          ]
        else []
      in
      flow_diags @ bridge_diags @ fault_diags @ local_diags @ summary
