(* rtnet.admit: the incremental admission engine, the crash-safe
   decision journal, the overload-protected service loop, the CFG-ADMIT
   lint rules and the admission chaos closure (generator, subject,
   search, shrinker, repro artifacts). *)

module Json = Rtnet_util.Json
module Request = Rtnet_admit.Request
module Engine = Rtnet_admit.Engine
module Journal = Rtnet_admit.Journal
module Service = Rtnet_admit.Service
module Config_lint = Rtnet_analysis.Config_lint
module Diagnostic = Rtnet_analysis.Diagnostic
module Oracle = Rtnet_analysis.Oracle
module Generator = Rtnet_chaos.Generator
module Subject = Rtnet_chaos.Subject
module Admission = Rtnet_chaos.Admission
module Plain = Rtnet_chaos.Plain
module Shrink = Rtnet_chaos.Shrink
module Repro = Rtnet_chaos.Repro
module Ddcr_params = Rtnet_core.Ddcr_params

let ok_exn = function Ok v -> v | Error e -> Alcotest.fail e

let phy = ok_exn (Request.phy_of_name "gigabit-ethernet")

(* Same derivation as ddcr_admit gen's defaults: horizon c·F past the
   largest deadline sample_churn can emit. *)
let good_params ~sources =
  let rec pow4 n = if n >= 2 * sources then n else pow4 (4 * n) in
  let q = pow4 4 in
  let static_indices =
    Array.init sources (fun i ->
        let rec walk j acc =
          if j >= q then List.rev acc else walk (j + sources) (j :: acc)
        in
        Array.of_list (walk i []))
  in
  {
    Ddcr_params.time_m = 4;
    time_leaves = 1024;
    class_width = 8192;
    alpha = 8192;
    theta = 0;
    static_m = 4;
    static_leaves = q;
    static_indices;
    burst_bits = 0;
  }

let broken_params =
  ok_exn
    (Result.bind
       (Json.parse_file "fixtures/model_params_broken.json")
       Ddcr_params.of_json)

let fresh_engine ?(phy = phy) ?(sources = 2) () =
  ok_exn
    (Engine.create ~phy ~num_sources:sources ~params:(good_params ~sources))

let flow ?(id = "f0") ?(source = 0) ?(bits = 4000) ?(deadline = 800_000)
    ?(burst = 1) ?(window = 400_000) ?(offset = 0) () =
  {
    Request.fl_id = id;
    fl_source = source;
    fl_bits = bits;
    fl_deadline = deadline;
    fl_burst = burst;
    fl_window = window;
    fl_offset = offset;
  }

let churn ?(seed = 3) ?(index = 0) ?(sources = 2) ?(pool = 8) n =
  Generator.sample_churn ~seed ~index ~sources ~pool ~requests:n

(* The churn sampler saturates at ~20 flows.  This stream holds ~100:
   light flows (one frame per 24 ms window, deadlines 3–6 ms) over 64
   sources, drawn from 1 000 ids, with adds dominating below 100
   resident flows and removes at or above.  A few requests are
   duplicate adds and removes of unknown ids.  Nearly every add fits,
   so the resident count tracks the generator's. *)
let resident_sources = 64

let resident_churn ?(seed = 1) n =
  let module Prng = Rtnet_util.Prng in
  let pool = 1000 and target = 100 and window = 24_000_000 in
  let rng = Prng.create seed in
  let members = Array.make pool 0 and resident = Array.make pool false in
  let count = ref 0 in
  let flow id =
    let fl_source = Prng.int rng resident_sources in
    let fl_bits = 800 + Prng.int rng 1600 in
    let fl_deadline = 3_000_000 + Prng.int rng 3_000_000 in
    {
      Request.fl_id = Printf.sprintf "f%d" id;
      fl_source;
      fl_bits;
      fl_deadline;
      fl_burst = 1;
      fl_window = window;
      fl_offset = Prng.int rng window;
    }
  in
  let rec fresh () =
    let id = Prng.int rng pool in
    if resident.(id) then fresh () else id
  in
  let member () = members.(Prng.int rng !count) in
  List.init n (fun _ ->
      let r = Prng.int rng 100 in
      let adds = if !count < target then 79 else 14 in
      if r < 2 && !count > 0 then Request.Add (flow (member ()))
      else if r < 4 then Request.Remove (Printf.sprintf "f%d" (fresh ()))
      else if r < adds || !count = 0 then begin
        let id = fresh () in
        resident.(id) <- true;
        members.(!count) <- id;
        incr count;
        Request.Add (flow id)
      end
      else if r < 90 then begin
        let i = Prng.int rng !count in
        let id = members.(i) in
        resident.(id) <- false;
        decr count;
        members.(i) <- members.(!count);
        Request.Remove (Printf.sprintf "f%d" id)
      end
      else Request.Modify (flow (member ())))

let code d = Engine.decision_code d

(* -------------------- engine semantics -------------------- *)

let test_engine_rejections () =
  let eng = fresh_engine () in
  Alcotest.(check string)
    "bad source" "invalid-params"
    (code (Engine.decide eng (Request.Add (flow ~source:7 ()))));
  Alcotest.(check string)
    "bad bits" "invalid-params"
    (code (Engine.decide eng (Request.Add (flow ~bits:0 ()))));
  Alcotest.(check string)
    "remove unknown" "unknown-flow"
    (code (Engine.decide eng (Request.Remove "ghost")));
  Alcotest.(check string)
    "modify unknown" "unknown-flow"
    (code (Engine.decide eng (Request.Modify (flow ()))));
  Alcotest.(check string)
    "first add" "accepted"
    (code (Engine.decide eng (Request.Add (flow ()))));
  Alcotest.(check string)
    "duplicate add" "duplicate-flow"
    (code (Engine.decide eng (Request.Add (flow ~deadline:900_000 ()))));
  Alcotest.(check int) "still one flow" 1 (Engine.size eng);
  Alcotest.(check string)
    "remove" "accepted"
    (code (Engine.decide eng (Request.Remove "f0")));
  Alcotest.(check string)
    "re-add after remove" "accepted"
    (code (Engine.decide eng (Request.Add (flow ()))))

let test_engine_atomic_modify () =
  let eng = fresh_engine () in
  let original = flow ~deadline:800_000 () in
  ignore (Engine.decide eng (Request.Add original));
  (* A modify whose parameters cannot fit (absurd rate) must bounce and
     leave the original admitted with its original class id. *)
  let absurd = flow ~deadline:100 ~window:100 ~bits:100_000 ~burst:64 () in
  (match Engine.decide eng (Request.Modify absurd) with
  | Engine.Rejected (Engine.Infeasible _) -> ()
  | d -> Alcotest.failf "expected infeasible, got %s" (code d));
  (match Engine.flows eng with
  | [ (f, _) ] ->
    Alcotest.(check int) "original deadline" 800_000 f.Request.fl_deadline
  | l -> Alcotest.failf "expected 1 flow, got %d" (List.length l));
  ignore (ok_exn (Engine.selfcheck eng))

let test_engine_never_raises () =
  let eng = fresh_engine () in
  List.iter
    (fun r -> ignore (Engine.decide eng r))
    (churn 500 ~pool:6);
  ignore (ok_exn (Engine.selfcheck eng))

(* -------------------- differential equivalence -------------------- *)

(* The tentpole invariant: the incremental decision and the from-scratch
   one agree on EVERY request of a churn stream — structurally equal
   decisions, float bit for float bit — and the per-decision sampled
   self-check (a third, Feasibility-based path) agrees too.  Run per
   medium: destructive media take the ξ branch of the bound, arbitrated
   ones the re-probe branch. *)
let test_differential_churn ?(sources = 2) ?(reqs = churn 400) phy () =
  let inc = fresh_engine ~phy ~sources () in
  let full = fresh_engine ~phy ~sources () in
  List.iteri
    (fun i req ->
      let a = Engine.decide inc req in
      let b = Engine.decide_full full req in
      if a <> b then
        Alcotest.failf "decision %d diverged: %s vs %s" i
          (Json.to_string (Engine.decision_to_json a))
          (Json.to_string (Engine.decision_to_json b));
      if i mod 17 = 0 then ignore (ok_exn (Engine.selfcheck inc)))
    reqs;
  ignore (ok_exn (Engine.selfcheck inc))

(* The same at ~100 resident flows, the size the churn benchmark runs
   at: every decision against Feasibility.check, and the stream must
   really reach that size. *)
let test_differential_resident () =
  let reqs = resident_churn 1_500 in
  test_differential_churn ~sources:resident_sources ~reqs phy ();
  let eng = fresh_engine ~sources:resident_sources () in
  List.iter (fun req -> ignore (Engine.decide eng req)) reqs;
  Alcotest.(check bool)
    (Printf.sprintf "%d resident flows >= 90" (Engine.size eng))
    true
    (Engine.size eng >= 90)

let test_differential_broken_params () =
  (* The broken (horizon-starved) parameters are still internally
     consistent for the analysis: incremental == from-scratch there
     too.  The bug they plant is accept-then-violate, not a cache
     divergence. *)
  let mk () =
    ok_exn (Engine.create ~phy ~num_sources:2 ~params:broken_params)
  in
  let inc = mk () and full = mk () in
  List.iter
    (fun req ->
      Alcotest.(check bool)
        "same decision" true
        (Engine.decide inc req = Engine.decide_full full req))
    (churn 200 ~seed:9);
  ignore (ok_exn (Engine.selfcheck inc))

(* The decision log of one long churn, pinned by its digest.  Every
   accept and infeasible line carries the binding headroom d − B_DDCR
   as a float, so a change to any §4.3 term, or to the order in which
   the bound is evaluated, changes the digest.  Both paths must print
   the same log. *)
let test_pinned_stream phy_name expected () =
  let phy = ok_exn (Request.phy_of_name phy_name) in
  let reqs = churn 2_000 ~seed:17 ~pool:16 in
  let digest decide =
    let eng = fresh_engine ~phy () in
    List.mapi
      (fun seq req ->
        let jr_decision = decide eng req in
        Journal.record_line
          { Journal.jr_seq = seq; jr_request = req; jr_decision })
      reqs
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  Alcotest.(check string) "incremental" expected (digest Engine.decide);
  Alcotest.(check string) "from scratch" expected (digest Engine.decide_full)

(* The S₁ memo answers exactly what Multi_tree.bound answers, bit for
   bit, for key sequences that mix a few hot (u, v) pairs with many
   cold ones — enough distinct keys to double the table several times.
   After every growth each key seen so far is looked up again; every
   lookup is a hit or a miss, and the misses are the distinct keys. *)
let prop_s1_memo =
  let m = 4 and t = 64 in
  QCheck.Test.make ~name:"S1 memo = Multi_tree.bound across every growth"
    ~count:30
    (QCheck.make
       ~print:QCheck.Print.(list (pair int int))
       QCheck.Gen.(
         list_size (int_range 1 3000)
           (frequency
              [
                (1, pair (int_bound 20) (int_range 1 3));
                (2, pair (int_bound 5000) (int_range 1 60));
              ])))
    (fun keys ->
      let memo = Engine.S1_memo.create ~m ~t in
      let lookups = ref 0 and seen = Hashtbl.create 64 in
      let exact (u, v) =
        incr lookups;
        Int64.equal
          (Int64.bits_of_float (Engine.S1_memo.find memo ~u ~v))
          (Int64.bits_of_float (Rtnet_core.Multi_tree.bound ~m ~t ~u ~v))
      in
      List.for_all
        (fun key ->
          let cap = Engine.S1_memo.capacity memo in
          let ok = exact key in
          Hashtbl.replace seen key ();
          ok
          && (Engine.S1_memo.capacity memo = cap
             || Hashtbl.fold (fun k () ok -> ok && exact k) seen true))
        keys
      && Engine.S1_memo.hits memo + Engine.S1_memo.misses memo = !lookups
      && Engine.S1_memo.misses memo = Hashtbl.length seen)

(* What one decision allocates: the residents live in an array (no
   list rebuilt per eviction), the bounds are refreshed unboxed in
   Feasibility's rows, and an S₁ lookup builds no key, so what is left
   is the decision itself and an admitted flow's entry.  On the 20k
   churn of the stress test the list-held engine with a tuple-keyed
   memo allocated 58.1 words per decision, the array-held one 27.3
   (each refreshed bound came back boxed).  At ~100 resident flows that
   box cost 215.5 words per decision. *)
let words_per_decision ?(sources = 2) reqs =
  let eng = fresh_engine ~sources () in
  let before = Gc.minor_words () in
  List.iter (fun req -> ignore (Engine.decide eng req)) reqs;
  (Gc.minor_words () -. before) /. float_of_int (List.length reqs)

let test_engine_allocation_pinned () =
  let words = words_per_decision (churn 20_000 ~pool:16) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f <= 36 minor words per decision" words)
    true (words <= 36.);
  let words =
    words_per_decision ~sources:resident_sources (resident_churn 20_000)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f <= 40 minor words per decision at ~100 flows" words)
    true (words <= 40.)

(* -------------------- snapshots -------------------- *)

let test_snapshot_roundtrip () =
  let eng = fresh_engine () in
  let reqs = churn 120 in
  List.iter (fun r -> ignore (Engine.decide eng r)) reqs;
  let restored =
    ok_exn
      (Engine.restore ~phy ~num_sources:2 ~params:(good_params ~sources:2)
         (Engine.snapshot eng))
  in
  ignore (ok_exn (Engine.selfcheck restored));
  Alcotest.(check bool)
    "same flows" true
    (Engine.flows eng = Engine.flows restored);
  (* The restored engine must keep deciding identically. *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "post-restore decision" true
        (Engine.decide eng r = Engine.decide restored r))
    (churn 80 ~seed:5)

(* A snapshot in which two flows share a class id must not restore:
   the engine would fail every later self-check and instance call, and
   a failed restore is what sends --resume to journal-only recovery. *)
let test_restore_rejects_repeated_cls_id () =
  let eng = fresh_engine () in
  List.iter (fun r -> ignore (Engine.decide eng r)) (churn 120);
  Alcotest.(check bool) "two flows or more" true (Engine.size eng >= 2);
  let restore j =
    Engine.restore ~phy ~num_sources:2 ~params:(good_params ~sources:2) j
  in
  let snap = Engine.snapshot eng in
  ignore (ok_exn (restore snap));
  let set_cls_id id = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function "cls_id", _ -> ("cls_id", Json.Int id) | kv -> kv)
           fields)
    | j -> j
  in
  let tampered =
    match snap with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "flows", Json.List (f0 :: f1 :: rest) ->
               let id0 =
                 ok_exn (Result.bind (Json.field "cls_id" f0) Json.get_int)
               in
               ("flows", Json.List (f0 :: set_cls_id id0 f1 :: rest))
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  match restore tampered with
  | Ok _ -> Alcotest.fail "a snapshot with a repeated cls_id restored"
  | Error e ->
    Alcotest.(check bool)
      ("names the repeat: " ^ e) true
      (Astring_contains.contains e "duplicate class id")

(* -------------------- journal -------------------- *)

let temp_journal () = Filename.temp_file "admit_journal" ".wal"

let decide_all eng reqs =
  List.mapi
    (fun i req ->
      {
        Journal.jr_seq = i;
        jr_request = req;
        jr_decision = Engine.decide eng req;
      })
    reqs

let test_journal_roundtrip () =
  let path = temp_journal () in
  let records = decide_all (fresh_engine ()) (churn 50) in
  let w = ok_exn (Journal.create ~path ~trace_hash:"h1") in
  List.iter (Journal.append w) records;
  Journal.close w;
  let loaded = ok_exn (Journal.load ~path ~trace_hash:"h1") in
  Alcotest.(check bool) "no tear" false loaded.Journal.lo_torn;
  Alcotest.(check bool) "records" true (loaded.Journal.lo_records = records);
  (match Journal.load ~path ~trace_hash:"other" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "journal accepted under a different trace");
  Sys.remove path

let test_journal_torn_tail () =
  let path = temp_journal () in
  let records = decide_all (fresh_engine ()) (churn 20) in
  let keep, torn =
    match List.rev records with
    | last :: rest -> (List.rev rest, last)
    | [] -> assert false
  in
  let w = ok_exn (Journal.create ~path ~trace_hash:"h1") in
  List.iter (Journal.append w) keep;
  Journal.append_torn w torn;
  Journal.close w;
  let loaded = ok_exn (Journal.load ~path ~trace_hash:"h1") in
  Alcotest.(check bool) "tear detected" true loaded.Journal.lo_torn;
  Alcotest.(check int)
    "records before the tear" (List.length keep)
    (List.length loaded.Journal.lo_records);
  (* open_append truncates the tear and appending the lost record
     completes the journal. *)
  let w =
    ok_exn
      (Journal.open_append ~path ~valid_bytes:loaded.Journal.lo_valid_bytes)
  in
  Journal.append w torn;
  Journal.close w;
  let healed = ok_exn (Journal.load ~path ~trace_hash:"h1") in
  Alcotest.(check bool) "healed" true (healed.Journal.lo_records = records);
  Alcotest.(check bool) "no tear left" false healed.Journal.lo_torn;
  Sys.remove path

(* A kill during the journal's first write leaves a torn header: the
   journal loads as empty, and appending needs a fresh header, so
   open_append refuses the empty prefix instead of writing records
   after none. *)
let test_journal_torn_header () =
  let path = temp_journal () in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc {|{"admit_journal_version":1,"tra|});
  let loaded = ok_exn (Journal.load ~path ~trace_hash:"h1") in
  Alcotest.(check bool) "tear detected" true loaded.Journal.lo_torn;
  Alcotest.(check int) "no intact prefix" 0 loaded.Journal.lo_valid_bytes;
  (match Journal.open_append ~path ~valid_bytes:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "appended after a torn header");
  Sys.remove path

(* The crash-recovery property: truncate the journal at EVERY byte
   length; the intact prefix always loads (torn tail dropped, never an
   error), and resuming — replaying the prefix through Engine.apply and
   re-deciding the rest — reproduces the uninterrupted decision
   sequence exactly. *)
let test_journal_prefix_truncation () =
  let reqs = churn 30 ~seed:13 in
  let golden = decide_all (fresh_engine ()) reqs in
  let golden_lines = List.map Journal.record_line golden in
  let path = temp_journal () in
  let w = ok_exn (Journal.create ~path ~trace_hash:"h1") in
  List.iter (Journal.append w) golden;
  Journal.close w;
  let bytes =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    b
  in
  let cut = Filename.temp_file "admit_cut" ".wal" in
  let total = String.length bytes in
  for len = 0 to total do
    let oc = open_out_bin cut in
    output_string oc (String.sub bytes 0 len);
    close_out oc;
    match Journal.load ~path:cut ~trace_hash:"h1" with
    | Error e -> Alcotest.failf "truncation at %d/%d: %s" len total e
    | Ok loaded ->
      let k = List.length loaded.Journal.lo_records in
      let eng = fresh_engine () in
      List.iter
        (fun r ->
          ignore
            (ok_exn (Engine.apply eng r.Journal.jr_request r.Journal.jr_decision)))
        loaded.Journal.lo_records;
      let resumed =
        List.map Journal.record_line loaded.Journal.lo_records
        @ List.mapi
            (fun i req ->
              Journal.record_line
                {
                  Journal.jr_seq = k + i;
                  jr_request = req;
                  jr_decision = Engine.decide eng req;
                })
            (List.filteri (fun i _ -> i >= k) reqs)
      in
      if resumed <> golden_lines then
        Alcotest.failf "truncation at %d/%d: resumed log diverged (%d replayed)"
          len total k
  done;
  Sys.remove cut;
  Sys.remove path

let test_snapshot_file_roundtrip () =
  let path = temp_journal () in
  let eng = fresh_engine () in
  List.iter (fun r -> ignore (Engine.decide eng r)) (churn 60);
  ok_exn
    (Journal.save_snapshot ~path ~trace_hash:"h1" ~seq:60 (Engine.snapshot eng));
  (match Journal.load_snapshot ~path ~trace_hash:"h1" with
  | None -> Alcotest.fail "snapshot did not load"
  | Some (seq, state) ->
    Alcotest.(check int) "seq" 60 seq;
    let restored =
      ok_exn
        (Engine.restore ~phy ~num_sources:2 ~params:(good_params ~sources:2)
           state)
    in
    Alcotest.(check bool)
      "same flows" true
      (Engine.flows eng = Engine.flows restored));
  Alcotest.(check bool)
    "stale hash ignored" true
    (Journal.load_snapshot ~path ~trace_hash:"other" = None);
  (* A torn snapshot degrades to None, never an error. *)
  let sp = Journal.snapshot_path path in
  let ic = open_in_bin sp in
  let half = in_channel_length ic / 2 in
  let prefix = really_input_string ic half in
  close_in ic;
  let oc = open_out_bin sp in
  output_string oc prefix;
  close_out oc;
  Alcotest.(check bool)
    "torn snapshot ignored" true
    (Journal.load_snapshot ~path ~trace_hash:"h1" = None);
  Sys.remove sp;
  Sys.remove path

(* -------------------- service -------------------- *)

let service_log reqs config =
  let eng = fresh_engine () in
  let records = ref [] in
  let summary =
    Service.run
      ~journal:(fun r -> records := r :: !records)
      config eng ~start:0 reqs
  in
  (summary, List.rev !records, eng)

let test_service_summary () =
  let reqs = churn 200 in
  let summary, records, eng =
    service_log reqs { Service.default with Service.sv_selfcheck_every = 1 }
  in
  Alcotest.(check int) "processed" 200 summary.Service.sm_processed;
  Alcotest.(check int) "journaled" 200 (List.length records);
  Alcotest.(check int) "selfchecks" 200 summary.Service.sm_selfchecks;
  Alcotest.(check bool) "no mismatch" true (summary.Service.sm_mismatch = None);
  Alcotest.(check int) "flows" (Engine.size eng) summary.Service.sm_flows;
  let rejected = List.fold_left (fun a (_, n) -> a + n) 0 summary.Service.sm_rejected in
  Alcotest.(check int)
    "accepted + rejected = processed" 200
    (summary.Service.sm_accepted + rejected)

let test_service_overload () =
  (* One chunk of 40 against capacity 10 / high 20 / low 5: the chunk
     size 40 >= high 20 engages degraded mode from position 0, shedding
     Add/Modify (a Remove still runs) while the backlog stays above
     low 5; positions >= capacity 10 shed everything outright.  The
     whole pattern is a pure function of the absolute index. *)
  let reqs = churn 40 ~seed:21 in
  let config =
    {
      Service.sv_chunk = 40;
      sv_capacity = 10;
      sv_high = 20;
      sv_low = 5;
      sv_selfcheck_every = 0;
      sv_snapshot_every = 0;
    }
  in
  let summary, golden, _ = service_log reqs config in
  Alcotest.(check int) "one degraded window" 1 summary.Service.sm_degraded;
  Alcotest.(check int) "restored" 1 summary.Service.sm_restored;
  let overloaded =
    try List.assoc "overloaded" summary.Service.sm_rejected with Not_found -> 0
  in
  Alcotest.(check bool) "sheds happened" true (overloaded > 0);
  (* Only Removes survive inside the degraded head of the chunk. *)
  List.iter
    (fun r ->
      match (r.Journal.jr_request, r.Journal.jr_decision) with
      | (Request.Add _ | Request.Modify _), d
        when Engine.decision_code d <> "overloaded" ->
        Alcotest.failf "request %d: add/modify survived the degraded chunk"
          r.Journal.jr_seq
      | _ -> ())
    golden;
  (* Resume determinism incl. the shed pattern: replay the journaled
     prefix through Engine.apply (exactly what [--resume] does), then
     let the service decide the tail — the journal tail must be
     byte-identical from any split point. *)
  let golden_lines = List.map Journal.record_line golden in
  List.iter
    (fun split ->
      let eng = fresh_engine () in
      List.iteri
        (fun i r ->
          if i < split then
            ignore
              (ok_exn
                 (Engine.apply eng r.Journal.jr_request r.Journal.jr_decision)))
        golden;
      let tail = List.filteri (fun i _ -> i >= split) reqs in
      let lines = ref [] in
      let journal r = lines := Journal.record_line r :: !lines in
      ignore (Service.run ~journal config eng ~start:split tail);
      Alcotest.(check bool)
        (Printf.sprintf "split at %d" split)
        true
        (List.rev !lines
        = List.filteri (fun i _ -> i >= split) golden_lines))
    [ 3; 10; 25; 36 ]

let test_service_churn_stress () =
  (* The stress gate: a long sampled stream drains with zero
     differential divergence and bounded state. *)
  let reqs = churn 20_000 ~pool:16 in
  let config =
    { Service.default with Service.sv_selfcheck_every = 1000 }
  in
  let eng = fresh_engine () in
  let summary = Service.run config eng ~start:0 reqs in
  Alcotest.(check int) "processed" 20_000 summary.Service.sm_processed;
  Alcotest.(check bool) "no mismatch" true (summary.Service.sm_mismatch = None);
  Alcotest.(check int) "selfchecks" 20 summary.Service.sm_selfchecks;
  Alcotest.(check bool) "resident set bounded" true (Engine.size eng <= 16);
  ignore (ok_exn (Engine.selfcheck eng))

(* -------------------- lint rules -------------------- *)

let trace_of requests =
  {
    Request.tr_phy = phy;
    tr_sources = 2;
    tr_params = good_params ~sources:2;
    tr_requests = requests;
  }

(* The request-trace hash binds every journal and snapshot to its
   trace, so its value is part of the on-disk format: pinned here for
   both committed traces and a generated 20k-request churn, and checked
   against its definition, the digest of the rendered trace JSON. *)
let test_trace_hash_pinned () =
  let check name expected tr =
    Alcotest.(check string) (name ^ ": trace_hash") expected
      (Request.trace_hash tr);
    Alcotest.(check string)
      (name ^ ": digest of the rendered trace")
      expected
      (Digest.to_hex (Digest.string (Json.to_string (Request.trace_to_json tr))))
  in
  let load path = ok_exn (Request.load_trace ~path) in
  check "admit_churn_smoke.json" "b5c1abdf7195a70c0e0667a303df2982"
    (load "fixtures/admit_churn_smoke.json");
  check "admit_churn_violation.json" "ca8b8a20a1d11ea915961dea957311fe"
    (load "fixtures/admit_churn_violation.json");
  check "20k churn" "eda1fefbc82d738da2cc0c2dda2fea79" (trace_of (churn 20_000 ~pool:16))

let test_lint_clean () =
  let diags =
    Config_lint.check_admit
      (trace_of [ Request.Add (flow ()); Request.Remove "f0" ])
  in
  Alcotest.(check bool) "no errors" false (Diagnostic.has_errors diags);
  Alcotest.(check bool) "summary info present" true (diags <> [])

let test_lint_duplicate_add () =
  let diags =
    Config_lint.check_admit
      (trace_of [ Request.Add (flow ()); Request.Add (flow ~deadline:900_000 ()) ])
  in
  Alcotest.(check bool) "errors" true (Diagnostic.has_errors diags);
  Alcotest.(check bool)
    "CFG-ADMIT-DUP fired" true
    (List.exists (fun d -> d.Diagnostic.rule_id = "CFG-ADMIT-DUP") diags)

let test_lint_headroom_warning () =
  (* The committed smoke fixture (same sample as ddcr_admit gen
     --seed 1) drives the binding class within one frame of B_DDCR a
     few times. *)
  let trace = ok_exn (Request.load_trace ~path:"fixtures/admit_churn_smoke.json") in
  let diags = Config_lint.check_admit trace in
  Alcotest.(check bool)
    "CFG-ADMIT-HEADROOM fired" true
    (List.exists (fun d -> d.Diagnostic.rule_id = "CFG-ADMIT-HEADROOM") diags)

(* -------------------- chaos closure -------------------- *)

let test_sample_churn_deterministic () =
  let a = churn 64 ~seed:7 and b = churn 64 ~seed:7 in
  Alcotest.(check bool) "same seed same stream" true (a = b);
  Alcotest.(check bool)
    "different index different stream" true
    (churn 64 ~seed:7 <> churn 64 ~seed:7 ~index:1);
  Alcotest.(check int) "length" 64 (List.length a)

let admit_env =
  {
    Admission.an_phy = "gigabit-ethernet";
    an_sources = 2;
    an_params = broken_params;
    an_horizon_ms = 10;
  }

let violating_candidate () =
  (* Candidate 0 of the seeded search: known to accept-then-violate
     under the horizon-starved parameters (asserted below, and frozen
     into fixtures/admit_chaos_repro_min.json). *)
  {
    Admission.ar_requests = churn 64 ~seed:7 ~pool:8;
    ar_trace_seed = Rtnet_util.Prng.derive (Rtnet_util.Prng.derive 7 1) 0;
  }

let run_admit ?(env = admit_env) cd = Subject.run (module Admission) env cd

let test_run_admit_violation () =
  let report = run_admit (violating_candidate ()) in
  (match report.Subject.rp_verdict with
  | Oracle.Admission_violation { misses; _ } ->
    Alcotest.(check bool) "misses counted" true (misses > 0)
  | v -> Alcotest.failf "expected admission violation, got %s" (Oracle.label v));
  let again = run_admit (violating_candidate ()) in
  Alcotest.(check string)
    "fingerprint stable" report.Subject.rp_fingerprint
    again.Subject.rp_fingerprint

let test_run_admit_good_params_pass () =
  let env = { admit_env with Admission.an_params = good_params ~sources:2 } in
  let report = run_admit ~env (violating_candidate ()) in
  Alcotest.(check string)
    "sound params pass" "pass"
    (Oracle.label report.Subject.rp_verdict)

let test_shrink_preserves_class () =
  let cd = violating_candidate () in
  let target = (run_admit cd).Subject.rp_verdict in
  let res =
    Shrink.run (module Admission) ~oracle:(fun cd -> run_admit cd) ~target cd
  in
  Alcotest.(check bool)
    "verdict class preserved" true
    (Oracle.same_class res.Shrink.sh_report.Subject.rp_verdict target);
  Alcotest.(check bool)
    "no longer than original" true
    (List.length res.Shrink.sh_candidate.Admission.ar_requests
    <= List.length cd.Admission.ar_requests);
  Alcotest.(check bool) "did some checks" true (res.Shrink.sh_checks > 0)

(* An admission artifact must bound its work before any decision is
   made: the horizon by the plain cap, the messages its flows can
   release by Σ a·⌈horizon/w⌉. *)
let test_admit_artifact_bounds_work () =
  let repro = ok_exn (Json.parse_file "fixtures/admit_chaos_repro_min.json") in
  let set key v = function
    | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
    | j -> j
  in
  let with_horizon ms j =
    let admit = ok_exn (Json.field "admit" j) in
    set "admit" (set "horizon_ms" (Json.Int ms) admit) j
  in
  let rejected label ~names j =
    match Admission.of_json ~version:1 j with
    | Error e ->
      Alcotest.(check bool) (label ^ ": " ^ e) true
        (Astring_contains.contains e names)
    | Ok _ -> Alcotest.fail ("decoded " ^ label)
    | exception exn ->
      Alcotest.fail (label ^ " raised " ^ Printexc.to_string exn)
  in
  let at_cap = with_horizon Plain.max_horizon_ms repro in
  let past_cap = Plain.max_horizon_ms + 1 in
  ignore (ok_exn (Admission.of_json ~version:1 repro));
  ignore (ok_exn (Admission.of_json ~version:1 at_cap));
  rejected "a horizon past the cap" ~names:"horizon_ms"
    (with_horizon past_cap repro);
  rejected "a horizon of max_int ms" ~names:"horizon_ms"
    (with_horizon max_int repro);
  let fast = Request.Add (flow ~id:"fast" ~deadline:1_000 ~window:1_000 ()) in
  let requests =
    ok_exn (Result.bind (Json.field "requests" repro) Json.get_list)
  in
  rejected "a flow of 6e7 messages" ~names:"messages"
    (set "requests" (Json.List (Request.to_json fast :: requests)) at_cap);
  (match
     Repro.load (module Admission)
       ~path:"fixtures/admit_chaos_repro_huge_horizon.json"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded the huge-horizon artifact");
  Alcotest.(check bool) "the search environment passes" true
    (Result.is_ok (Admission.check_env admit_env));
  Alcotest.(check bool) "a search past the cap is refused" true
    (Result.is_error
       (Admission.check_env
          { admit_env with Admission.an_horizon_ms = past_cap }))

let test_oracle_verdict_roundtrip () =
  let v = Oracle.Admission_violation { flow = "f3"; misses = 7 } in
  Alcotest.(check bool)
    "roundtrip" true
    (ok_exn (Oracle.of_json (Oracle.to_json v)) = v);
  Alcotest.(check string) "label" "admission-violation" (Oracle.label v)

let suite =
  [
    ( "admit",
      [
        Alcotest.test_case "engine rejection semantics" `Quick
          test_engine_rejections;
        Alcotest.test_case "modify is atomic" `Quick test_engine_atomic_modify;
        Alcotest.test_case "malformed churn never raises" `Quick
          test_engine_never_raises;
        Alcotest.test_case "incremental == from-scratch on churn" `Quick
          (test_differential_churn phy);
        Alcotest.test_case "differential holds under broken params" `Quick
          test_differential_broken_params;
        Alcotest.test_case "engine snapshot roundtrip" `Quick
          test_snapshot_roundtrip;
        Alcotest.test_case "journal roundtrip + trace hash" `Quick
          test_journal_roundtrip;
        Alcotest.test_case "journal torn tail heals" `Quick
          test_journal_torn_tail;
        Alcotest.test_case "journal torn header is not appended to" `Quick
          test_journal_torn_header;
        Alcotest.test_case "resume from every byte-truncation" `Slow
          test_journal_prefix_truncation;
        Alcotest.test_case "snapshot file roundtrip" `Quick
          test_snapshot_file_roundtrip;
        Alcotest.test_case "service summary accounting" `Quick
          test_service_summary;
        Alcotest.test_case "service overload watermarks deterministic" `Quick
          test_service_overload;
        Alcotest.test_case "service 20k churn stress" `Slow
          test_service_churn_stress;
        Alcotest.test_case "lint: clean trace" `Quick test_lint_clean;
        Alcotest.test_case "lint: duplicate add is an error" `Quick
          test_lint_duplicate_add;
        Alcotest.test_case "lint: headroom warning on smoke fixture" `Quick
          test_lint_headroom_warning;
        Alcotest.test_case "sample_churn deterministic" `Quick
          test_sample_churn_deterministic;
        Alcotest.test_case "run_admit finds the planted violation" `Quick
          test_run_admit_violation;
        Alcotest.test_case "run_admit passes under sound params" `Quick
          test_run_admit_good_params_pass;
        Alcotest.test_case "shrink preserves the verdict class" `Quick
          test_shrink_preserves_class;
        Alcotest.test_case "admission repro roundtrip + replay" `Quick
          (Test_chaos.test_repro_roundtrip Test_chaos.admit_case);
        Alcotest.test_case "oracle admission verdict roundtrip" `Quick
          test_oracle_verdict_roundtrip;
        Alcotest.test_case "incremental == from-scratch on atm-bus churn"
          `Quick
          (test_differential_churn (ok_exn (Request.phy_of_name "atm-bus")));
        Alcotest.test_case "incremental == from-scratch at ~100 flows" `Quick
          test_differential_resident;
        Alcotest.test_case "restore rejects a repeated cls_id" `Quick
          test_restore_rejects_repeated_cls_id;
        Alcotest.test_case "decision stream pinned on gigabit-ethernet" `Quick
          (test_pinned_stream "gigabit-ethernet"
             "47aec1a1a9f33bb2493d06e8a900bcc1");
        Alcotest.test_case "decision stream pinned on atm-bus" `Quick
          (test_pinned_stream "atm-bus" "b7d0f1b071becdfd72b1ce866d03ef86");
        Alcotest.test_case "request trace hash pinned" `Quick
          test_trace_hash_pinned;
        Alcotest.test_case "engine allocation per decision pinned" `Quick
          test_engine_allocation_pinned;
        QCheck_alcotest.to_alcotest ~speed_level:`Quick
          ~rand:(Random.State.make [| 26 |])
          prop_s1_memo;
        Alcotest.test_case "admission artifacts bound the work" `Quick
          test_admit_artifact_bounds_work;
      ] );
  ]
