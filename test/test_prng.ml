module Prng = Rtnet_util.Prng

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy () =
  let a = Prng.create 7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a)
    (Prng.bits64 b)

let test_int_range () =
  let g = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "n <= 0" (Invalid_argument "Prng.int: n <= 0")
    (fun () -> ignore (Prng.int g 0))

let test_int_covers () =
  let g = Prng.create 11 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Prng.int g 8) <- true
  done;
  Alcotest.(check bool) "all residues reached" true
    (Array.for_all Fun.id seen)

let test_float_range () =
  let g = Prng.create 13 in
  for _ = 1 to 1000 do
    let v = Prng.float g 3.5 in
    Alcotest.(check bool) "0 <= v < 3.5" true (v >= 0. && v < 3.5)
  done

let test_exponential_positive () =
  let g = Prng.create 17 in
  let sum = ref 0. in
  for _ = 1 to 2000 do
    let v = Prng.exponential g 2.0 in
    Alcotest.(check bool) "positive" true (v >= 0.);
    sum := !sum +. v
  done;
  let mean = !sum /. 2000. in
  Alcotest.(check bool) "mean near 1/rate" true (mean > 0.4 && mean < 0.6)

let test_split_independent () =
  let g = Prng.create 23 in
  let h = Prng.split g in
  let overlap = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 g = Prng.bits64 h then incr overlap
  done;
  Alcotest.(check bool) "split stream differs" true (!overlap < 4)

let test_derive_deterministic () =
  Alcotest.(check int) "pure function" (Prng.derive 42 3) (Prng.derive 42 3);
  Alcotest.(check bool) "indices separate" true
    (Prng.derive 42 0 <> Prng.derive 42 1);
  Alcotest.(check bool) "seeds separate" true
    (Prng.derive 1 0 <> Prng.derive 2 0);
  Alcotest.(check bool) "non-negative" true (Prng.derive 42 5 >= 0);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Prng.derive: negative index") (fun () ->
      ignore (Prng.derive 42 (-1)))

let test_derive_streams_independent () =
  (* Streams created from sibling derived seeds should not overlap. *)
  let a = Prng.create (Prng.derive 42 0) in
  let b = Prng.create (Prng.derive 42 1) in
  let overlap = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr overlap
  done;
  Alcotest.(check bool) "derived streams differ" true (!overlap < 4)

let test_stream_path () =
  let draw g = Prng.bits64 g in
  Alcotest.(check int64) "same path, same stream"
    (draw (Prng.stream ~seed:7 ~path:[ 1; 2; 3 ]))
    (draw (Prng.stream ~seed:7 ~path:[ 1; 2; 3 ]));
  Alcotest.(check int64) "empty path is the root stream"
    (draw (Prng.create 7))
    (draw (Prng.stream ~seed:7 ~path:[]));
  Alcotest.(check bool) "path order matters" true
    (draw (Prng.stream ~seed:7 ~path:[ 1; 2 ])
    <> draw (Prng.stream ~seed:7 ~path:[ 2; 1 ]));
  Alcotest.(check bool) "prefix differs from extension" true
    (draw (Prng.stream ~seed:7 ~path:[ 1 ])
    <> draw (Prng.stream ~seed:7 ~path:[ 1; 0 ]))

let test_shuffle_permutation () =
  let g = Prng.create 29 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let prop_coordinate_streams_independent =
  (* The chaos generator keys candidate [i]'s fault-event stream as
     [stream ~seed ~path:[tag; i]]: two candidates differing only in
     their replicate index must share no stream prefix, or a fleet of
     "independent" candidates would silently explore correlated fault
     schedules.  Check the first draws of sibling coordinates across
     random seeds and index pairs. *)
  QCheck.Test.make ~name:"sibling coordinate streams share no prefix"
    ~count:100
    QCheck.(triple small_int small_nat small_nat)
    (fun (seed, i, d) ->
      let j = i + 1 + d in
      let tag = 0xC4A0 in
      let prefix path =
        let g = Prng.stream ~seed ~path in
        List.init 8 (fun _ -> Prng.bits64 g)
      in
      match (prefix [ tag; i ], prefix [ tag; j ]) with
      | a :: _, b :: _ -> a <> b
      | _ -> false)

let prop_bool_balanced =
  QCheck.Test.make ~name:"bool roughly balanced" ~count:20 QCheck.small_int
    (fun seed ->
      let g = Prng.create seed in
      let heads = ref 0 in
      for _ = 1 to 1000 do
        if Prng.bool g then incr heads
      done;
      !heads > 400 && !heads < 600)

(* --- The streams pinned: values recorded from the boxed-state
   implementation this module replaced, so a change of representation
   cannot move a single draw. --- *)

(* The first 16 values of every draw from six seeds (each row from a
   fresh generator), of a split child and its parent, and of a copy
   taken after 5 draws; a 50-element shuffle; [derive] and [stream]
   over a few paths.  Floats print exactly ([%h]); the exponential
   draws to 15 digits, so the listing pins the stream rather than the
   last bit of [log]. *)
let listing () =
  let b = Buffer.create 65536 in
  let row name f =
    Buffer.add_string b name;
    for _ = 1 to 16 do
      Buffer.add_char b ' ';
      Buffer.add_string b (f ())
    done;
    Buffer.add_char b '\n'
  in
  let hex64 g () = Printf.sprintf "%016Lx" (Prng.bits64 g) in
  List.iter
    (fun seed ->
      Printf.bprintf b "seed %d\n" seed;
      let fresh () = Prng.create seed in
      row "bits64" (hex64 (fresh ()));
      List.iter
        (fun (name, n) ->
          let g = fresh () in
          row name (fun () -> string_of_int (Prng.int g n)))
        [ ("int1", 1); ("int7", 7); ("int1000", 1000); ("int_max", max_int) ];
      (let g = fresh () in
       row "float" (fun () -> Printf.sprintf "%h" (Prng.float g 1.0)));
      (let g = fresh () in
       row "float3.5" (fun () -> Printf.sprintf "%h" (Prng.float g 3.5)));
      (let g = fresh () in
       row "bool" (fun () -> if Prng.bool g then "1" else "0"));
      (let g = fresh () in
       row "exponential2" (fun () ->
           Printf.sprintf "%.15g" (Prng.exponential g 2.0)));
      (let g = fresh () in
       let child = Prng.split g in
       row "split_child" (hex64 child);
       row "split_parent" (hex64 g));
      let g = fresh () in
      for _ = 1 to 5 do
        ignore (Prng.bits64 g)
      done;
      row "copy_after5" (hex64 (Prng.copy g)))
    [ 0; 1; -1; max_int; min_int; 1234567 ];
  List.iter
    (fun seed ->
      let arr = Array.init 50 Fun.id in
      Prng.shuffle (Prng.create seed) arr;
      Printf.bprintf b "shuffle50 %d:%s\n" seed
        (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %d") arr))))
    [ 29; 1234567 ];
  List.iter
    (fun (seed, i) ->
      Printf.bprintf b "derive %d %d = %d\n" seed i (Prng.derive seed i))
    [ (0, 0); (1, 0); (1, 1); (42, 3); (-1, 7); (max_int, 2); (min_int, 1000) ];
  List.iter
    (fun (seed, path) ->
      let g = Prng.stream ~seed ~path in
      Printf.bprintf b "stream %d [%s]:" seed
        (String.concat ";" (List.map string_of_int path));
      for _ = 1 to 4 do
        Printf.bprintf b " %016Lx" (Prng.bits64 g)
      done;
      Buffer.add_char b '\n')
    [
      (7, []);
      (7, [ 0 ]);
      (7, [ 1 ]);
      (1, [ 2; 3 ]);
      (1, [ 2; 0; 5 ]);
      (42, [ 0xC4A0; 9 ]);
    ];
  Buffer.contents b

let test_streams_pinned () =
  let expected =
    In_channel.with_open_bin "fixtures/prng_streams.expected"
      In_channel.input_all
  in
  Alcotest.(check string) "fixtures/prng_streams.expected" expected (listing ())

(* Seed 1234567 matches the reference outputs of Vigna's splitmix64.c
   (state 1234567, unsigned decimal), so [create] seeds the published
   generator and [bits64] is its [next]. *)
let test_reference_outputs () =
  let g = Prng.create 1234567 in
  List.iter
    (fun want ->
      Alcotest.(check string) "splitmix64.c, seed 1234567" want
        (Printf.sprintf "%Lu" (Prng.bits64 g)))
    [
      "6457827717110365317";
      "3203168211198807973";
      "9817491932198370423";
      "4593380528125082431";
      "16408922859458223821";
    ]

let prop_below_is_float_compare =
  (* Two copies of one generator, one drawing through [below], the
     other through [float g 1.0 < p]: same answers, same positions. *)
  QCheck.Test.make ~name:"below g p = (float g 1.0 < p), draw for draw"
    ~count:200
    QCheck.(pair int (list_of_size Gen.(1 -- 64) (float_range 0. 1.)))
    (fun (seed, ps) ->
      let a = Prng.create seed in
      let b = Prng.copy a in
      List.for_all (fun p -> Prng.below a p = (Prng.float b 1.0 < p)) ps
      && Prng.bits64 a = Prng.bits64 b)

let suite =
  [
    ( "prng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
        Alcotest.test_case "copy" `Quick test_copy;
        Alcotest.test_case "int range" `Quick test_int_range;
        Alcotest.test_case "int covers" `Quick test_int_covers;
        Alcotest.test_case "float range" `Quick test_float_range;
        Alcotest.test_case "exponential" `Quick test_exponential_positive;
        Alcotest.test_case "split" `Quick test_split_independent;
        Alcotest.test_case "derive" `Quick test_derive_deterministic;
        Alcotest.test_case "derive streams" `Quick
          test_derive_streams_independent;
        Alcotest.test_case "stream path" `Quick test_stream_path;
        Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
        Alcotest.test_case "streams pinned" `Quick test_streams_pinned;
        Alcotest.test_case "splitmix64 reference outputs" `Quick
          test_reference_outputs;
        QCheck_alcotest.to_alcotest prop_below_is_float_compare;
        QCheck_alcotest.to_alcotest prop_bool_balanced;
        QCheck_alcotest.to_alcotest prop_coordinate_streams_independent;
      ] );
  ]
