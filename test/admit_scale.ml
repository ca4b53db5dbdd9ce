(* Elaborates a ternary Topo.tree of N one-source segments under a
   time limit: a runtest rule runs it on 60 000 segments, so a return of
   a per-hop or per-segment scan over every bridge (route checks, route
   resolution, elaborated source counts, fault-plan station checks)
   fails the suite.  Every segment carries an (empty) fault plan, so
   the station check runs for each, and each flow crosses one bridge,
   child to parent: the tree's own flows all end at the root, whose
   Feasibility pass would then price every flow at once.

   Usage: admit_scale.exe N *)

module Topo = Rtnet_topology.Topo
module Admit = Rtnet_topology.Admit

let () =
  let segments = int_of_string Sys.argv.(1) in
  let tree =
    Topo.tree ~name:"scale" ~segments ~fanout:3 ~sources:1 ~load:0.01
      ~deadline_windows:2.0 ()
  in
  let t =
    Topo.create_exn ~name:"scale"
      ~segments:
        (List.map
           (fun s ->
             { s with Topo.sg_fault = Some Rtnet_channel.Fault_plan.none })
           tree.Topo.tp_segments)
      ~bridges:tree.Topo.tp_bridges
      ~flows:
        (List.map
           (fun (b : Topo.bridge) ->
             {
               Topo.fl_name = "hop-" ^ b.Topo.br_name;
               fl_cls = 0;
               fl_path = [ b.Topo.br_from; b.Topo.br_to ];
               fl_criticality = 0;
             })
           tree.Topo.tp_bridges)
  in
  match Admit.elaborate t with
  | Ok e ->
    Printf.printf "%d segments, %d flows elaborated, %s\n" segments
      (List.length e.Admit.e_flows)
      (if e.Admit.e_admitted then "admitted" else "rejected")
  | Error e ->
    prerr_endline e;
    exit 1
