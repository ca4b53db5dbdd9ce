(* Builds a ternary Topo.tree of N one-source segments and sorts it
   upstream-first; a runtest rule runs it on 50 000 segments under a
   time limit, so a return of the quadratic construction or sort (which
   took minutes there) fails the suite.

   Usage: topo_scale.exe N *)

module Topo = Rtnet_topology.Topo

let () =
  let segments = int_of_string Sys.argv.(1) in
  let t =
    Topo.tree ~name:"scale" ~segments ~fanout:3 ~sources:1 ~load:0.01
      ~deadline_windows:2.0 ()
  in
  match Topo.toposort t with
  | Ok order ->
    Printf.printf "%d segments sorted, %s first, %s last\n" (List.length order)
      (List.hd order)
      (List.nth order (List.length order - 1))
  | Error e ->
    prerr_endline e;
    exit 1
