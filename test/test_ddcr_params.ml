module Ddcr_params = Rtnet_core.Ddcr_params
module Scenarios = Rtnet_workload.Scenarios
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message

let base =
  {
    Ddcr_params.time_m = 2;
    time_leaves = 8;
    class_width = 1000;
    alpha = 0;
    theta = 0;
    static_m = 2;
    static_leaves = 4;
    static_indices = [| [| 0 |]; [| 1; 2 |] |];
    burst_bits = 0;
  }

let expect_error p ~z msg =
  match Ddcr_params.validate p ~num_sources:z with
  | Error _ -> ()
  | Ok () -> Alcotest.fail ("expected rejection: " ^ msg)

let test_validate_ok () =
  Alcotest.(check bool) "valid" true
    (Ddcr_params.validate base ~num_sources:2 = Ok ())

let test_validate_rejects () =
  expect_error { base with Ddcr_params.time_leaves = 6 } ~z:2 "F not power";
  expect_error { base with Ddcr_params.static_leaves = 5 } ~z:2 "q not power";
  expect_error { base with Ddcr_params.class_width = 0 } ~z:2 "c = 0";
  expect_error { base with Ddcr_params.alpha = -1 } ~z:2 "alpha < 0";
  expect_error { base with Ddcr_params.theta = -1 } ~z:2 "theta < 0";
  expect_error base ~z:3 "wrong arity";
  expect_error
    { base with Ddcr_params.static_indices = [| [| 0 |]; [||] |] }
    ~z:2 "empty set";
  expect_error
    { base with Ddcr_params.static_indices = [| [| 0 |]; [| 0 |] |] }
    ~z:2 "shared index";
  expect_error
    { base with Ddcr_params.static_indices = [| [| 0 |]; [| 2; 1 |] |] }
    ~z:2 "not ascending";
  expect_error
    { base with Ddcr_params.static_indices = [| [| 0 |]; [| 4 |] |] }
    ~z:2 "out of range";
  (* The first failure of a row is the one reported: index 1 breaks
     the order before 99 leaves the range. *)
  Alcotest.(check (result unit string))
    "first failure" (Error "source 0: indices not ascending")
    (Ddcr_params.validate
       { base with Ddcr_params.static_indices = [| [| 3; 1; 99 |]; [| 0 |] |] }
       ~num_sources:2)

let test_nu () =
  Alcotest.(check int) "nu 0" 1 (Ddcr_params.nu base 0);
  Alcotest.(check int) "nu 1" 2 (Ddcr_params.nu base 1)

let test_default_is_valid () =
  List.iter
    (fun (name, inst) ->
      let p = Ddcr_params.default inst in
      match Ddcr_params.validate p ~num_sources:inst.Instance.num_sources with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    Scenarios.all

let test_default_horizon_covers_deadlines () =
  List.iter
    (fun (name, inst) ->
      let p = Ddcr_params.default inst in
      let max_d =
        List.fold_left
          (fun acc c -> max acc c.Message.cls_deadline)
          0 (Instance.classes inst)
      in
      Alcotest.(check bool)
        (name ^ ": cF covers max deadline")
        true
        (Ddcr_params.horizon_classes p >= max_d))
    Scenarios.all

let test_default_indices_per_source () =
  let inst = Scenarios.videoconference ~stations:3 in
  let p = Ddcr_params.default ~indices_per_source:4 inst in
  (* The request is a minimum; the tree (q = 16 for 3*4 = 12 needed
     leaves) is then filled: each source gets ⌊16/3⌋ = 5 indices. *)
  Alcotest.(check int) "nu = q/z" 5 (Ddcr_params.nu p 0);
  Alcotest.(check bool) "valid" true
    (Ddcr_params.validate p ~num_sources:3 = Ok ());
  (* Filling never leaves more than z-1 unused leaves. *)
  let used = 3 * Ddcr_params.nu p 0 in
  Alcotest.(check bool) "tree filled" true
    (p.Ddcr_params.static_leaves - used < 3)

let test_allocations_valid_and_shaped () =
  let inst = Rtnet_workload.Scenarios.skewed ~sources:6 ~heavy_fraction:0.7 in
  List.iter
    (fun alloc ->
      let p = Ddcr_params.default ~allocation:alloc inst in
      Alcotest.(check bool) "valid" true
        (Ddcr_params.validate p ~num_sources:6 = Ok ()))
    [ Ddcr_params.Round_robin; Ddcr_params.Contiguous; Ddcr_params.Weighted ];
  (* Contiguous: every source's indices form one consecutive block. *)
  let pc = Ddcr_params.default ~allocation:Ddcr_params.Contiguous inst in
  Array.iter
    (fun idx ->
      Array.iteri
        (fun j v -> if j > 0 then Alcotest.(check int) "block" (idx.(0) + j) v)
        idx)
    pc.Ddcr_params.static_indices;
  (* Weighted: the heavy source (source 0) owns strictly more leaves
     than any light one. *)
  let pw = Ddcr_params.default ~allocation:Ddcr_params.Weighted inst in
  let nu0 = Ddcr_params.nu pw 0 in
  for i = 1 to 5 do
    Alcotest.(check bool) "heavy gets more" true (nu0 > Ddcr_params.nu pw i)
  done;
  (* All strategies still fill the whole tree apart from rounding. *)
  let total p =
    Array.fold_left (fun acc a -> acc + Array.length a) 0 p.Ddcr_params.static_indices
  in
  Alcotest.(check int) "weighted fills tree" pw.Ddcr_params.static_leaves (total pw)

let test_branching_parameter () =
  let inst = Scenarios.videoconference ~stations:4 in
  List.iter
    (fun m ->
      let p = Ddcr_params.default ~branching:m inst in
      Alcotest.(check int) "time branching" m p.Ddcr_params.time_m;
      Alcotest.(check int) "static branching" m p.Ddcr_params.static_m;
      Alcotest.(check bool) "valid" true
        (Ddcr_params.validate p ~num_sources:4 = Ok ());
      (* The requested 64 leaves round up to a power of m. *)
      Alcotest.(check bool) "F >= 64" true (p.Ddcr_params.time_leaves >= 64))
    [ 2; 3; 4; 5; 8 ];
  Alcotest.check_raises "branching < 2"
    (Invalid_argument "Ddcr_params.default: branching < 2") (fun () ->
      ignore (Ddcr_params.default ~branching:1 inst))

let test_with_theta () =
  let p = Ddcr_params.with_theta base 500 in
  Alcotest.(check int) "theta set" 500 p.Ddcr_params.theta;
  Alcotest.check_raises "negative" (Invalid_argument "Ddcr_params.with_theta: negative")
    (fun () -> ignore (Ddcr_params.with_theta base (-1)))

(* [Ddcr_params.validate] written plainly, with a list of the indices
   taken instead of the presized index set: the reference its checks,
   messages and first error must match.  Each source's walk stops at
   its first failing index, and the first source with one stops the
   whole walk. *)
let validate_reference p ~num_sources =
  let power_of m v = m >= 2 && v >= m && Rtnet_util.Int_math.is_power_of m v in
  if not (power_of p.Ddcr_params.time_m p.Ddcr_params.time_leaves) then
    Error "time_leaves must be a power (>= m) of time_m"
  else if not (power_of p.Ddcr_params.static_m p.Ddcr_params.static_leaves)
  then Error "static_leaves must be a power (>= m) of static_m"
  else if p.Ddcr_params.class_width <= 0 then Error "class_width must be positive"
  else if p.Ddcr_params.alpha < 0 then Error "alpha must be non-negative"
  else if p.Ddcr_params.theta < 0 then Error "theta must be non-negative"
  else if p.Ddcr_params.burst_bits < 0 then Error "burst_bits must be non-negative"
  else if Array.length p.Ddcr_params.static_indices <> num_sources then
    Error "static_indices must have one entry per source"
  else begin
    let seen = ref [] in
    let check_source i idx =
      let rec walk prev = function
        | [] -> None
        | v :: rest ->
          if v < 0 || v >= p.Ddcr_params.static_leaves then
            Some (Printf.sprintf "source %d: index %d out of range" i v)
          else if (match prev with Some u -> u >= v | None -> false) then
            Some (Printf.sprintf "source %d: indices not ascending" i)
          else if List.mem v !seen then
            Some (Printf.sprintf "static index %d allocated twice" v)
          else begin
            seen := v :: !seen;
            walk (Some v) rest
          end
      in
      if Array.length idx = 0 then
        Some (Printf.sprintf "source %d has no static index" i)
      else walk None (Array.to_list idx)
    in
    let rec go i =
      if i >= num_sources then Ok ()
      else
        match check_source i p.Ddcr_params.static_indices.(i) with
        | Some e -> Error e
        | None -> go (i + 1)
    in
    go 0
  end

(* Parameters that mostly reach the index checks: valid tree shapes
   with q from 2 to 64 (sometimes a broken shape or a negative field),
   one index row per source or one too many or too few, rows of 0–6
   indices drawn around [0, q) and either sorted or as drawn. *)
let gen_params =
  QCheck.Gen.(
    let* q = oneofl [ 2; 4; 8; 16; 64; 6 ] in
    let* z = int_range 0 5 in
    let* rows = oneofl [ z; z; z; z + 1; max 0 (z - 1) ] in
    let* static_indices =
      array_repeat rows
        (let* len = int_range 0 6 in
         let* row = array_repeat len (int_range (-1) q) in
         let* sorted = bool in
         if sorted then return (Array.of_list (List.sort compare (Array.to_list row)))
         else return row)
    in
    let* class_width = oneofl [ 1000; 1000; 1000; 0 ] in
    let* theta = oneofl [ 0; 0; 0; -1 ] in
    return
      ( z,
        {
          base with
          Ddcr_params.static_leaves = q;
          static_indices;
          class_width;
          theta;
        } ))

let prop_validate_reference =
  QCheck.Test.make ~name:"validate = the reference validate" ~count:2000
    (QCheck.make
       ~print:(fun (z, p) ->
         Printf.sprintf "z=%d %s" z (Rtnet_util.Json.to_string (Ddcr_params.to_json p)))
       gen_params)
    (fun (num_sources, p) ->
      Ddcr_params.validate p ~num_sources = validate_reference p ~num_sources)

let suite =
  [
    ( "ddcr_params",
      [
        Alcotest.test_case "validate ok" `Quick test_validate_ok;
        Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
        Alcotest.test_case "nu" `Quick test_nu;
        Alcotest.test_case "default valid" `Quick test_default_is_valid;
        Alcotest.test_case "default horizon" `Quick
          test_default_horizon_covers_deadlines;
        Alcotest.test_case "indices per source" `Quick
          test_default_indices_per_source;
        Alcotest.test_case "allocations" `Quick test_allocations_valid_and_shaped;
        Alcotest.test_case "branching" `Quick test_branching_parameter;
        Alcotest.test_case "with_theta" `Quick test_with_theta;
        QCheck_alcotest.to_alcotest ~speed_level:`Quick
          ~rand:(Random.State.make [| 29 |])
          prop_validate_reference;
      ] );
  ]
