(* Every input decoder is total: a committed input fixture with bytes
   flipped, cut short or duplicated, or with a number replaced by an
   edge value, decodes to [Ok _] or [Error _] and never raises.  The
   mutants are drawn from a fixed seed, so a failure names the same
   fixture, mutant and decoder on every run. *)

module Json = Rtnet_util.Json
module Fault_plan = Rtnet_channel.Fault_plan
module Topo = Rtnet_topology.Topo
module Spec = Rtnet_campaign.Spec
module Report = Rtnet_campaign.Report
module Plain = Rtnet_chaos.Plain
module Federated = Rtnet_chaos.Federated
module Admission = Rtnet_chaos.Admission
module Repro = Rtnet_chaos.Repro
module Request = Rtnet_admit.Request
module Ddcr_params = Rtnet_core.Ddcr_params
module Postmortem = Rtnet_obs.Postmortem
module Trace_event = Rtnet_telemetry.Trace_event
module Trace_io = Rtnet_analysis.Trace_io

let read path = In_channel.with_open_bin path In_channel.input_all

let fixtures suffix =
  Sys.readdir "fixtures" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort compare

(* The number tokens outside string literals, as [(start, stop)]. *)
let numbers s =
  let n = String.length s in
  let is_num c = (c >= '0' && c <= '9') || String.contains "-+.eE" c in
  let rec go i in_str acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | '\\' when in_str -> go (i + 2) true acc
      | '"' -> go (i + 1) (not in_str) acc
      | ('0' .. '9' | '-') when not in_str ->
        let j = ref i in
        while !j < n && is_num s.[!j] do incr j done;
        go !j false ((i, !j) :: acc)
      | _ -> go (i + 1) in_str acc
  in
  go 0 false []

let edge_values =
  [
    "0"; "-1"; "1e308"; "1e999"; "4611686018427387904";
    "-4611686018427387904";
  ]

(* [(label, text)]: the original, [flips] single-byte replacements
   (half arbitrary bytes, half JSON punctuation and digits), [cuts]
   truncations, [dups] duplicated slices, and the first [nums] number
   tokens replaced by each edge value. *)
let mutants ~rng ~flips ~cuts ~dups ~nums text =
  let n = String.length text in
  let pick k = if k <= 0 then 0 else Random.State.int rng k in
  let splice a b mid =
    String.sub text 0 a ^ mid ^ String.sub text b (n - b)
  in
  let punct = "{}[]\":,0123456789-.eEtfn " in
  let flip k =
    let p = pick n in
    let c =
      if k mod 2 = 0 then Char.chr (pick 256)
      else punct.[pick (String.length punct)]
    in
    ( Printf.sprintf "flip@%d=%C" p c,
      splice p (min n (p + 1)) (String.make 1 c) )
  in
  let cut _ =
    let p = pick n in
    (Printf.sprintf "cut@%d" p, String.sub text 0 p)
  in
  let dup _ =
    let a = pick n in
    let len = min (n - a) (1 + pick 200) in
    ( Printf.sprintf "dup@%d+%d" a len,
      splice (a + len) (a + len) (String.sub text a len) )
  in
  let number =
    List.filteri (fun i _ -> i < nums) (numbers text)
    |> List.concat_map (fun (a, b) ->
           List.map
             (fun v -> (Printf.sprintf "num@%d=%s" a v, splice a b v))
             edge_values)
  in
  (("original", text) :: List.init flips flip)
  @ List.init cuts cut @ List.init dups dup @ number

let never_raises ~what decode text =
  match decode text with
  | Ok _ | Error _ -> ()
  | exception e ->
    Alcotest.failf "%s raised %s" what (Printexc.to_string e)

let ignore_ok decode j = Result.map ignore (decode j)

(* The decoders a committed JSON fixture can reach. *)
let json_decoders =
  [
    ("Topo.of_json", ignore_ok Topo.of_json);
    ("Fault_plan.spec_of_json", ignore_ok Fault_plan.spec_of_json);
    ("Plain.config_of_json", ignore_ok Plain.config_of_json);
    ("Repro.of_json Plain", ignore_ok (Repro.of_json (module Plain)));
    ("Repro.of_json Federated",
     ignore_ok (Repro.of_json (module Federated)));
    ("Repro.of_json Admission",
     ignore_ok (Repro.of_json (module Admission)));
    ("Report.of_json", ignore_ok Report.of_json);
    ("Request.trace_of_json", ignore_ok Request.trace_of_json);
    ("Ddcr_params.of_json", ignore_ok Ddcr_params.of_json);
    ("Postmortem.of_json", ignore_ok Postmortem.of_json);
    ("Trace_event.validate", ignore_ok Trace_event.validate);
  ]

(* Parse, then hand the tree to every decoder in [decoders]. *)
let check_json ~name decoders (label, text) =
  let what d = Printf.sprintf "%s [%s] %s" name label d in
  match Json.parse text with
  | Error _ -> ()
  | exception e ->
    Alcotest.failf "%s raised %s" (what "Json.parse") (Printexc.to_string e)
  | Ok j ->
    List.iter
      (fun (d, decode) -> never_raises ~what:(what d) decode j)
      decoders

let test_json_fixtures () =
  let rng = Random.State.make [| 28 |] in
  List.iter
    (fun f ->
      mutants ~rng ~flips:24 ~cuts:12 ~dups:6 ~nums:8
        (read (Filename.concat "fixtures" f))
      |> List.iter (check_json ~name:f json_decoders))
    (fixtures ".json")

let test_topology_fault_plans () =
  let rng = Random.State.make [| 29 |] in
  List.iter
    (fun f ->
      if String.starts_with ~prefix:"topo_fault_" f then
        match Json.parse (read (Filename.concat "fixtures" f)) with
        | Ok (Json.Obj plans) ->
          List.iter
            (fun (seg, plan) ->
              mutants ~rng ~flips:8 ~cuts:4 ~dups:2 ~nums:4
                (Json.to_string plan)
              |> List.iter
                   (check_json ~name:(f ^ ": " ^ seg)
                      [
                        ( "Fault_plan.spec_of_json",
                          ignore_ok Fault_plan.spec_of_json );
                      ]))
            plans
        | Ok _ | Error _ -> Alcotest.failf "%s: not an object of plans" f)
    (fixtures ".json")

let test_builtin_specs () =
  let rng = Random.State.make [| 30 |] in
  List.iter
    (fun (name, spec) ->
      mutants ~rng ~flips:8 ~cuts:4 ~dups:2 ~nums:4
        (Json.to_string (Spec.to_json spec))
      |> List.iter
           (check_json ~name [ ("Spec.of_json", ignore_ok Spec.of_json) ]))
    Spec.builtins

let test_trace_dumps () =
  let rng = Random.State.make [| 31 |] in
  List.iter
    (fun f ->
      mutants ~rng ~flips:16 ~cuts:8 ~dups:4 ~nums:8
        (read (Filename.concat "fixtures" f))
      |> List.iter (fun (label, text) ->
             never_raises
               ~what:(Printf.sprintf "%s [%s] Trace_io.parse" f label)
               (fun t -> Result.map ignore (Trace_io.parse t))
               text))
    [ "clean_trace.txt"; "corrupt_trace.txt" ]

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "mutated JSON fixtures never raise" `Quick
          test_json_fixtures;
        Alcotest.test_case "mutated topology fault plans never raise" `Quick
          test_topology_fault_plans;
        Alcotest.test_case "mutated builtin specs never raise" `Quick
          test_builtin_specs;
        Alcotest.test_case "mutated trace dumps never raise" `Quick
          test_trace_dumps;
      ] );
  ]
