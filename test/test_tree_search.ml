module Tree_search = Rtnet_core.Tree_search
module Xi = Rtnet_core.Xi
module Step = Rtnet_core.Ddcr.Step
module Ddcr_params = Rtnet_core.Ddcr_params
module Channel = Rtnet_channel.Channel
module Message = Rtnet_workload.Message

let cost ~m ~t active = Tree_search.cost (Tree_search.run ~m ~t ~active)

let test_empty_tree () =
  let tr = Tree_search.run ~m:2 ~t:8 ~active:[] in
  Alcotest.(check int) "one empty slot" 1 (Tree_search.cost tr);
  Alcotest.(check int) "single probe" 1 (List.length tr)

let test_single_active () =
  let tr = Tree_search.run ~m:2 ~t:8 ~active:[ 5 ] in
  Alcotest.(check int) "free transmission" 0 (Tree_search.cost tr);
  Alcotest.(check (list int)) "isolated" [ 5 ] (Tree_search.isolated tr)

let test_two_adjacent_worst () =
  (* Both actives under the deepest common subtree: full descent. *)
  Alcotest.(check int) "adjacent leaves cost eq5" (Xi.eq5 ~m:2 ~t:8)
    (cost ~m:2 ~t:8 [ 0; 1 ]);
  Alcotest.(check int) "far apart is cheap" 1 (cost ~m:2 ~t:8 [ 0; 7 ])

let test_left_to_right_order () =
  let tr = Tree_search.run ~m:2 ~t:8 ~active:[ 6; 1; 4 ] in
  Alcotest.(check (list int)) "transmissions left to right" [ 1; 4; 6 ]
    (Tree_search.isolated tr)

let test_probe_trace_structure () =
  let tr = Tree_search.run ~m:2 ~t:4 ~active:[ 0; 1 ] in
  (* root collision, left subtree collision, leaf 0, leaf 1, right
     subtree empty. *)
  let outcomes =
    List.map
      (fun s ->
        match s.Tree_search.outcome with
        | Tree_search.Empty -> "e"
        | Tree_search.Isolated _ -> "i"
        | Tree_search.Split -> "s"
        | Tree_search.Leaf_collision _ -> "c")
      tr
  in
  Alcotest.(check (list string)) "dfs order" [ "s"; "s"; "i"; "i"; "e" ] outcomes

let test_leaf_collision_counts_once () =
  (* Two occupants of one leaf: the leaf probe collides and is
     abandoned (ties go to the static search in the protocol). *)
  let tr = Tree_search.run ~m:2 ~t:4 ~active:[ 2; 2 ] in
  let collisions =
    List.filter
      (fun s ->
        match s.Tree_search.outcome with
        | Tree_search.Leaf_collision _ -> true
        | Tree_search.Empty | Tree_search.Isolated _ | Tree_search.Split -> false)
      tr
  in
  Alcotest.(check int) "one leaf collision" 1 (List.length collisions);
  Alcotest.(check (list int)) "nobody isolated" [] (Tree_search.isolated tr)

let test_invalid () =
  Alcotest.check_raises "bad m" (Invalid_argument "Tree_search.run: m < 2")
    (fun () -> ignore (Tree_search.run ~m:1 ~t:4 ~active:[]));
  Alcotest.check_raises "bad t"
    (Invalid_argument "Tree_search.run: t must be a power of m") (fun () ->
      ignore (Tree_search.run ~m:2 ~t:6 ~active:[]));
  Alcotest.check_raises "leaf range"
    (Invalid_argument "Tree_search.run: leaf out of range") (fun () ->
      ignore (Tree_search.run ~m:2 ~t:4 ~active:[ 4 ]))

let test_exhaustive_brute_force_matches_xi () =
  (* Ground truth for P1: over every subset of a small tree, the worst
     search cost is exactly ξ. *)
  let rec subsets lo t k =
    if k = 0 then [ [] ]
    else if lo >= t then []
    else
      List.map (fun s -> lo :: s) (subsets (lo + 1) t (k - 1))
      @ subsets (lo + 1) t k
  in
  List.iter
    (fun (m, t) ->
      let tab = Xi.table ~m ~t in
      for k = 0 to t do
        let worst =
          List.fold_left
            (fun acc s -> max acc (cost ~m ~t s))
            0 (subsets 0 t k)
        in
        Alcotest.(check int)
          (Printf.sprintf "brute m=%d t=%d k=%d" m t k)
          tab.(k) worst
      done)
    [ (2, 8); (2, 16); (3, 9); (4, 16) ]

let prop_isolates_everyone =
  QCheck.Test.make ~name:"search isolates every distinct active leaf"
    ~count:300
    QCheck.(pair (int_range 0 100000) (int_range 0 16))
    (fun (seed, k) ->
      let t = 16 and m = 2 in
      let rng = Rtnet_util.Prng.create seed in
      let leaves = Array.init t Fun.id in
      Rtnet_util.Prng.shuffle rng leaves;
      let active = List.sort compare (Array.to_list (Array.sub leaves 0 k)) in
      let tr = Tree_search.run ~m ~t ~active in
      Tree_search.isolated tr = active)

let prop_cost_invariant_under_m =
  (* For any subset, quaternary search never beats... rather: cost is
     bounded by xi for every branching degree. *)
  QCheck.Test.make ~name:"cost <= xi for m in {2,4}" ~count:300
    QCheck.(pair (int_range 0 100000) (int_range 0 64))
    (fun (seed, k) ->
      let t = 64 in
      let rng = Rtnet_util.Prng.create seed in
      let leaves = Array.init t Fun.id in
      Rtnet_util.Prng.shuffle rng leaves;
      let active = Array.to_list (Array.sub leaves 0 k) in
      cost ~m:2 ~t active <= Xi.exact ~m:2 ~t ~k
      && cost ~m:4 ~t active <= Xi.exact ~m:4 ~t ~k)

(* The protocol's own static tree search, from an STs entry: station
   [s] owns the one index [active.(s)] and holds one message inside the
   colliding deadline class; station [k] only listens.  Each slot, every
   replica decides by [Step.decide] and a destructive wire resolves the
   attempts; every replica observes by [Step.observe].  Returns the
   idle and collision slots and the indices of the frames carried, in
   order, once the replicas leave the static tree. *)
let sts_walk ~m ~t active =
  let k = Array.length active in
  let params =
    {
      Ddcr_params.time_m = 2;
      time_leaves = 2;
      class_width = 1_000;
      alpha = 0;
      theta = 0;
      static_m = m;
      static_leaves = t;
      static_indices =
        Array.init (k + 1) (fun s -> if s < k then [| active.(s) |] else [||]);
      burst_bits = 0;
    }
  in
  let msg s =
    let cls =
      {
        Message.cls_id = s;
        cls_name = "c" ^ string_of_int s;
        cls_source = s;
        cls_bits = 100;
        cls_deadline = 500;
        cls_burst = 1;
        cls_window = 500;
      }
    in
    { Message.uid = s; cls; arrival = 0 }
  in
  let entry =
    {
      Step.phase =
        Step.Sts
          ( { Step.s_stack = [ (0, t) ]; time_leaf = 0 },
            { Step.t_stack = [ (0, 1) ]; f_star = -1; sent = false } );
      reft = 0;
      rank = 0;
      last_out = false;
    }
  in
  let replicas = Array.make (k + 1) entry in
  let sent = Array.make k false in
  let rec go slot costly frames =
    match replicas.(k).Step.phase with
    | Step.Sts _ when slot <= 4 * t ->
      let attempts =
        List.filter_map
          (fun s ->
            Step.decide params ~source:s replicas.(s)
              ~msg_star:(if sent.(s) then None else Some (msg s)))
          (List.init k Fun.id)
      in
      let resolution, costly, frames =
        match attempts with
        | [] -> (Channel.Idle, costly + 1, frames)
        | [ a ] ->
          let src = a.Channel.att_source in
          sent.(src) <- true;
          ( Channel.Tx { src; tag = a.Channel.att_tag; on_wire = 100 },
            costly,
            active.(src) :: frames )
        | _ ->
          let contenders =
            List.map
              (fun a -> (a.Channel.att_source, a.Channel.att_tag))
              attempts
          in
          (Channel.Clash { contenders; survivor = None }, costly + 1, frames)
      in
      let next_free = (slot + 1) * 1_000 in
      Array.iteri
        (fun s st ->
          replicas.(s) <-
            Step.observe params ~source:s st ~resolution ~next_free)
        replicas;
      go (slot + 1) costly frames
    | _ -> (costly, List.rev frames)
  in
  go 0 0 []

let prop_sts_walks_the_instrument_tree =
  QCheck.Test.make
    ~name:"DDCR's static search walks Tree_search's tree" ~count:600
    QCheck.(triple (oneofl [ 2; 3; 4 ]) (int_range 1 6) (int_range 0 100_000))
    (fun (m, n, seed) ->
      (* t = m^n <= 81 *)
      let rec tree t n =
        if n = 0 || t * m > 81 then t else tree (t * m) (n - 1)
      in
      let t = tree m (n - 1) in
      let rng = Rtnet_util.Prng.create seed in
      let leaves = Array.init t Fun.id in
      Rtnet_util.Prng.shuffle rng leaves;
      let active = Array.sub leaves 0 (Rtnet_util.Prng.int rng (t + 1)) in
      let tr = Tree_search.run ~m ~t ~active:(Array.to_list active) in
      sts_walk ~m ~t active = (Tree_search.cost tr, Tree_search.isolated tr))

let suite =
  [
    ( "tree_search",
      [
        Alcotest.test_case "empty tree" `Quick test_empty_tree;
        Alcotest.test_case "single active" `Quick test_single_active;
        Alcotest.test_case "adjacent worst" `Quick test_two_adjacent_worst;
        Alcotest.test_case "left-to-right" `Quick test_left_to_right_order;
        Alcotest.test_case "probe structure" `Quick test_probe_trace_structure;
        Alcotest.test_case "leaf collision" `Quick test_leaf_collision_counts_once;
        Alcotest.test_case "invalid args" `Quick test_invalid;
        Alcotest.test_case "brute force = xi" `Slow
          test_exhaustive_brute_force_matches_xi;
        QCheck_alcotest.to_alcotest prop_isolates_everyone;
        QCheck_alcotest.to_alcotest prop_cost_invariant_under_m;
        QCheck_alcotest.to_alcotest prop_sts_walks_the_instrument_tree;
      ] );
  ]
