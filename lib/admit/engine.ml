module Json = Rtnet_util.Json
module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Arrival = Rtnet_workload.Arrival
module Phy = Rtnet_channel.Phy
module Ddcr_params = Rtnet_core.Ddcr_params
module Multi_tree = Rtnet_core.Multi_tree
module Xi = Rtnet_core.Xi
module Feasibility = Rtnet_core.Feasibility

let ( let* ) = Result.bind

(* Per-admitted-flow running sums of the Section 4.3 quantities: [en_r]
   is r(M), [en_u]/[en_tx] the interference count and its transmission
   time, each a sum of Feasibility's per-pair terms over the admitted
   classes.  All three are exact integers, so delta updates commute
   and removing a flow restores the pre-add values bit-for-bit — which
   is what lets the differential self-check demand *exact* float
   equality against Feasibility. *)
type entry = {
  en_flow : Request.flow;
  en_cls : Message.cls;  (* the flow as a class, built once at admission *)
  en_wire : int;  (* l'(M) *)
  mutable en_r : int;
  mutable en_u : int;
  mutable en_tx : int;
  mutable en_bound : float;
  mutable en_dirty : bool;
}

(* The S₁ memo's key (u, v), hashed and compared as two ints — no
   polymorphic hash or compare per lookup. *)
module S1_tab = Hashtbl.Make (struct
  type t = int * int

  let equal (u1, v1) (u2, v2) = Int.equal u1 u2 && Int.equal v1 v2
  let hash (u, v) = ((u * 65599) + v) land max_int
end)

type s1_memo = {
  s1_tab : float S1_tab.t;  (* (u, v) ↦ ξ̃ bound S₁ *)
  mutable n_s1_hits : int;
  mutable n_s1_misses : int;
}

(* S₁ = Multi_tree.bound, memoized by its only inputs (u, v). *)
let memo_s1 params memo ~u ~v =
  let key = (u, v) in
  match S1_tab.find memo.s1_tab key with
  | s ->
    memo.n_s1_hits <- memo.n_s1_hits + 1;
    s
  | exception Not_found ->
    memo.n_s1_misses <- memo.n_s1_misses + 1;
    let s =
      Multi_tree.bound ~m:params.Ddcr_params.static_m
        ~t:params.Ddcr_params.static_leaves ~u ~v
    in
    S1_tab.add memo.s1_tab key s;
    s

type t = {
  phy : Phy.t;
  num_sources : int;
  params : Ddcr_params.t;
  arbitrated : bool;
  x : float;
  xi2 : int;  (* cached time-tree search bound ξ₂ = Xi.eq5(m, F) *)
  memo : s1_memo;
  s1 : u:int -> v:int -> float;  (* S₁ through [memo] *)
  flows : (string, entry) Hashtbl.t;
  mutable entries : entry list;  (* unordered; ties broken by cls_id *)
  mutable next_cls_id : int;
  mutable n_decisions : int;
}

let create ~phy ~num_sources ~params =
  let* () = Ddcr_params.validate params ~num_sources in
  let memo = { s1_tab = S1_tab.create 256; n_s1_hits = 0; n_s1_misses = 0 } in
  Ok
    {
      phy;
      num_sources;
      params;
      arbitrated = phy.Phy.semantics = Phy.Arbitration;
      x = float_of_int phy.Phy.slot_bits;
      xi2 =
        Xi.eq5 ~m:params.Ddcr_params.time_m ~t:params.Ddcr_params.time_leaves;
      memo;
      s1 = memo_s1 params memo;
      flows = Hashtbl.create 64;
      entries = [];
      next_cls_id = 0;
      n_decisions = 0;
    }

let size t = Hashtbl.length t.flows
let params t = t.params
let phy t = t.phy
let num_sources t = t.num_sources

(* -------------------- decisions -------------------- *)

type reject_code =
  | Infeasible of { binding : string; headroom : float }
  | Unknown_flow
  | Duplicate_flow
  | Invalid_params of string
  | Overloaded of { retry_after : int }

type decision =
  | Accepted of { binding : (string * float) option }
  | Rejected of reject_code

let decision_code = function
  | Accepted _ -> "accepted"
  | Rejected (Infeasible _) -> "infeasible"
  | Rejected Unknown_flow -> "unknown-flow"
  | Rejected Duplicate_flow -> "duplicate-flow"
  | Rejected (Invalid_params _) -> "invalid-params"
  | Rejected (Overloaded _) -> "overloaded"

let decision_to_json d =
  let code = ("code", Json.String (decision_code d)) in
  Json.Obj
    (match d with
    | Accepted { binding = None } -> [ code ]
    | Accepted { binding = Some (b, h) } ->
      [ code; ("binding", Json.String b); ("headroom", Json.Float h) ]
    | Rejected (Infeasible { binding; headroom }) ->
      [
        code;
        ("binding", Json.String binding);
        ("headroom", Json.Float headroom);
      ]
    | Rejected Unknown_flow | Rejected Duplicate_flow -> [ code ]
    | Rejected (Invalid_params detail) ->
      [ code; ("detail", Json.String detail) ]
    | Rejected (Overloaded { retry_after }) ->
      [ code; ("retry_after", Json.Int retry_after) ])

let decision_of_json j =
  let* code = Result.bind (Json.field "code" j) Json.get_string in
  let binding () =
    let* b = Result.bind (Json.field "binding" j) Json.get_string in
    let* h = Result.bind (Json.field "headroom" j) Json.get_float in
    Ok (b, h)
  in
  match code with
  | "accepted" -> (
    match Json.member "binding" j with
    | None -> Ok (Accepted { binding = None })
    | Some _ ->
      let* bh = binding () in
      Ok (Accepted { binding = Some bh }))
  | "infeasible" ->
    let* b, h = binding () in
    Ok (Rejected (Infeasible { binding = b; headroom = h }))
  | "unknown-flow" -> Ok (Rejected Unknown_flow)
  | "duplicate-flow" -> Ok (Rejected Duplicate_flow)
  | "invalid-params" ->
    let* detail = Result.bind (Json.field "detail" j) Json.get_string in
    Ok (Rejected (Invalid_params detail))
  | "overloaded" ->
    let* retry_after = Result.bind (Json.field "retry_after" j) Json.get_int in
    Ok (Rejected (Overloaded { retry_after }))
  | other -> Error (Printf.sprintf "unknown decision code %S" other)

(* -------------------- feasibility terms -------------------- *)

(* Every term and the bound itself are Feasibility's; the engine only
   keeps the running sums and knows which of them moved. *)

let v_of t en = Feasibility.static_trees t.params en.en_cls ~r:en.en_r

let refresh t en =
  if en.en_dirty then begin
    en.en_bound <-
      Feasibility.bound_of_sums ~arbitrated:t.arbitrated ~x:t.x ~xi2:t.xi2
        ~s1:t.s1 ~tx:en.en_tx ~u:en.en_u ~v:(v_of t en);
    en.en_dirty <- false
  end

(* -------------------- attach / detach -------------------- *)

let mk_entry t ~cls_id (f : Request.flow) =
  {
    en_flow = f;
    en_cls =
      {
        Message.cls_id;
        cls_name = f.Request.fl_id;
        cls_source = f.Request.fl_source;
        cls_bits = f.Request.fl_bits;
        cls_deadline = f.Request.fl_deadline;
        cls_burst = f.Request.fl_burst;
        cls_window = f.Request.fl_window;
      };
    en_wire = Phy.tx_bits t.phy f.Request.fl_bits;
    en_r = 0;
    en_u = 0;
    en_tx = 0;
    en_bound = 0.;
    en_dirty = true;
  }

(* Add [sign] times [c]'s per-pair terms to [m]'s sums; [m] turns dirty
   if they moved.  Inlined: attach and detach run it per resident. *)
let[@inline] shift ~sign m c =
  let du =
    sign * Feasibility.interference_term ~wire:m.en_wire m.en_cls c.en_cls
  in
  let dr = sign * Feasibility.rank_term m.en_cls c.en_cls in
  m.en_u <- m.en_u + du;
  m.en_tx <- m.en_tx + (du * c.en_wire);
  m.en_r <- m.en_r + dr;
  if du <> 0 || dr <> 0 then m.en_dirty <- true

(* Add [en] to the admitted set, pushing its terms into every resident
   class and summing the residents' (and its own) terms into it.  Only
   classes whose sums actually moved are marked dirty — the dirty set. *)
let attach t en =
  en.en_r <- -1;
  en.en_u <- 0;
  en.en_tx <- 0;
  en.en_dirty <- true;
  List.iter
    (fun other ->
      shift ~sign:1 other en;
      shift ~sign:1 en other)
    t.entries;
  shift ~sign:1 en en;
  Hashtbl.replace t.flows en.en_flow.Request.fl_id en;
  t.entries <- en :: t.entries

let detach t en =
  Hashtbl.remove t.flows en.en_flow.Request.fl_id;
  t.entries <- List.filter (fun e -> e != en) t.entries;
  List.iter (fun other -> shift ~sign:(-1) other en) t.entries

let by_cls_id t =
  List.sort
    (fun a b -> Int.compare a.en_cls.Message.cls_id b.en_cls.Message.cls_id)
    t.entries

(* [sorted] is the entries in class-id order ({!by_cls_id}). *)
let instance_of t sorted =
  match sorted with
  | [] -> Error "no admitted flows"
  | _ ->
    Instance.create ~name:"admit" ~phy:t.phy ~num_sources:t.num_sources
      (List.map
         (fun en ->
           ( en.en_cls,
             Arrival.Periodic { offset = en.en_flow.Request.fl_offset } ))
         sorted)

(* -------------------- evaluation -------------------- *)

type eval = Empty | Eval of { binding : string; headroom : float; ok : bool }

(* The binding entry is the one with the least headroom d − B_DDCR,
   ties to the lower class id, walked over the entries themselves so
   no tuple is built per resident. *)
let evaluate t =
  let headroom en =
    float_of_int en.en_flow.Request.fl_deadline -. en.en_bound
  in
  let rec walk best ok = function
    | [] ->
      Eval
        { binding = best.en_flow.Request.fl_id; headroom = headroom best; ok }
    | en :: rest ->
      refresh t en;
      let ok =
        ok && en.en_bound <= float_of_int en.en_flow.Request.fl_deadline
      in
      let h_best = headroom best and h = headroom en in
      let best =
        if h_best < h then best
        else if h < h_best then en
        else if best.en_cls.Message.cls_id <= en.en_cls.Message.cls_id then
          best
        else en
      in
      walk best ok rest
  in
  match t.entries with [] -> Empty | first :: _ as all -> walk first true all

(* From scratch: Feasibility.check itself on the tentative set, no
   cache read or written.  The binding rule is [evaluate]'s; the
   report's rows are in class-id order, so the first row of least
   headroom is the one. *)
let evaluate_reference t =
  match instance_of t (by_cls_id t) with
  | Error _ -> Empty (* only when empty: admitted flows are all valid *)
  | Ok inst ->
    let report = Feasibility.check t.params inst in
    let headroom cr =
      float_of_int cr.Feasibility.cr_cls.Message.cls_deadline
      -. cr.Feasibility.cr_bound
    in
    let rows = report.Feasibility.per_class in
    let best =
      List.fold_left
        (fun best cr -> if headroom cr < headroom best then cr else best)
        (List.hd rows) rows
    in
    Eval
      {
        binding = best.Feasibility.cr_cls.Message.cls_name;
        headroom = headroom best;
        ok = report.Feasibility.feasible;
      }

(* -------------------- the decision procedure -------------------- *)

let validate_flow t (f : Request.flow) =
  if String.length f.Request.fl_id = 0 then Error "empty flow id"
  else if f.Request.fl_source < 0 || f.Request.fl_source >= t.num_sources then
    Error
      (Printf.sprintf "source %d out of range [0, %d)" f.Request.fl_source
         t.num_sources)
  else if f.Request.fl_bits <= 0 then Error "bits must be positive"
  else if f.Request.fl_deadline <= 0 then Error "deadline must be positive"
  else if f.Request.fl_burst < 1 then Error "burst must be >= 1"
  else if f.Request.fl_window <= 0 then Error "window must be positive"
  else if f.Request.fl_offset < 0 then Error "offset must be >= 0"
  else Ok ()

(* Attach [f] under the next class id and keep it if the set stays
   feasible; otherwise detach it again and run [undo]. *)
let admit ~eval t f ~undo =
  let en = mk_entry t ~cls_id:t.next_cls_id f in
  attach t en;
  match eval t with
  | Empty -> assert false
  | Eval { binding; headroom; ok = true } ->
    t.next_cls_id <- t.next_cls_id + 1;
    Accepted { binding = Some (binding, headroom) }
  | Eval { binding; headroom; ok = false } ->
    detach t en;
    undo ();
    Rejected (Infeasible { binding; headroom })

let decide_with ~eval t req =
  t.n_decisions <- t.n_decisions + 1;
  match req with
  | Request.Add f -> (
    match validate_flow t f with
    | Error e -> Rejected (Invalid_params e)
    | Ok () ->
      if Hashtbl.mem t.flows f.Request.fl_id then Rejected Duplicate_flow
      else admit ~eval t f ~undo:ignore)
  | Request.Remove id -> (
    match Hashtbl.find_opt t.flows id with
    | None -> Rejected Unknown_flow
    | Some en -> (
      detach t en;
      (* Evictions only shrink every sum, so the survivors stay
         feasible; the decision reports the new binding headroom. *)
      match eval t with
      | Empty -> Accepted { binding = None }
      | Eval { binding; headroom; _ } ->
        Accepted { binding = Some (binding, headroom) }))
  | Request.Modify f -> (
    match validate_flow t f with
    | Error e -> Rejected (Invalid_params e)
    | Ok () -> (
      match Hashtbl.find_opt t.flows f.Request.fl_id with
      | None -> Rejected Unknown_flow
      | Some old ->
        detach t old;
        (* Atomic replace: infeasible new parameters leave the old
           flow admitted under its original class id. *)
        admit ~eval t f ~undo:(fun () -> attach t old)))

let decide t req = decide_with ~eval:evaluate t req
let decide_full t req = decide_with ~eval:evaluate_reference t req

(* Replay a journaled decision without re-deciding: accepted requests
   mutate, rejections are no-ops.  Errors mean the journal does not
   describe this engine's history. *)
let apply t req decision =
  let append f =
    attach t (mk_entry t ~cls_id:t.next_cls_id f);
    t.next_cls_id <- t.next_cls_id + 1
  in
  match (req, decision) with
  | _, Rejected _ -> Ok ()
  | Request.Add f, Accepted _ ->
    if Hashtbl.mem t.flows f.Request.fl_id then
      Error (Printf.sprintf "journal: duplicate add of %s" f.Request.fl_id)
    else Ok (append f)
  | Request.Remove id, Accepted _ -> (
    match Hashtbl.find_opt t.flows id with
    | None -> Error (Printf.sprintf "journal: remove of unknown %s" id)
    | Some en -> Ok (detach t en))
  | Request.Modify f, Accepted _ -> (
    match Hashtbl.find_opt t.flows f.Request.fl_id with
    | None -> Error (Printf.sprintf "journal: modify of unknown %s" f.Request.fl_id)
    | Some old ->
      detach t old;
      Ok (append f))

(* -------------------- views -------------------- *)

let flows t =
  List.map (fun en -> (en.en_flow, en.en_cls.Message.cls_id)) (by_cls_id t)

let headroom t =
  match evaluate t with
  | Empty -> None
  | Eval { binding; headroom; _ } -> Some (binding, headroom)

let instance t = instance_of t (by_cls_id t)

(* -------------------- differential self-check -------------------- *)

(* The invariant the whole fast path hangs on: the cached answer must
   equal a from-scratch Feasibility.check — not approximately, exactly,
   down to the float bit pattern (both sides add up the same
   Feasibility terms and evaluate the same Feasibility expression).  The report's rows are in class
   id order, so one walk pairs them with the entries sorted the same
   way; class ids are unique (decide assigns them, restore rejects a
   repeat). *)
let selfcheck t =
  match t.entries with
  | [] -> Ok ()
  | _ -> (
    let sorted = by_cls_id t in
    match instance_of t sorted with
    | Error e -> Error ("selfcheck: " ^ e)
    | Ok inst ->
      let report = Feasibility.check t.params inst in
      let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
      let same cr en =
        refresh t en;
        let name = en.en_flow.Request.fl_id in
        if cr.Feasibility.cr_r <> en.en_r then
          fail "selfcheck: %s: r %d <> %d" name cr.Feasibility.cr_r en.en_r
        else if cr.Feasibility.cr_u <> en.en_u then
          fail "selfcheck: %s: u %d <> %d" name cr.Feasibility.cr_u en.en_u
        else if cr.Feasibility.cr_v <> v_of t en then
          fail "selfcheck: %s: v %d <> %d" name cr.Feasibility.cr_v
            (v_of t en)
        else if cr.Feasibility.cr_bound <> en.en_bound then
          fail "selfcheck: %s: bound %.17g <> %.17g" name
            cr.Feasibility.cr_bound en.en_bound
        else if
          cr.Feasibility.cr_feasible
          <> (en.en_bound <= float_of_int en.en_flow.Request.fl_deadline)
        then fail "selfcheck: %s: feasibility verdict differs" name
        else Ok ()
      in
      (* A sorted merge; an entry the report lacks is skipped here and
         caught by the class count. *)
      let rec walk rows ens =
        match (rows, ens) with
        | [], _ ->
          let n = List.length report.Feasibility.per_class in
          if n <> size t then fail "selfcheck: class count %d <> %d" n (size t)
          else Ok ()
        | cr :: _, en :: ens'
          when en.en_cls.Message.cls_id < cr.Feasibility.cr_cls.Message.cls_id
          ->
          walk rows ens'
        | cr :: rows', en :: ens'
          when en.en_cls.Message.cls_id = cr.Feasibility.cr_cls.Message.cls_id
          -> (
          match same cr en with Ok () -> walk rows' ens' | e -> e)
        | cr :: _, _ ->
          fail "selfcheck: class %d not in engine"
            cr.Feasibility.cr_cls.Message.cls_id
      in
      walk report.Feasibility.per_class sorted)

(* -------------------- snapshots -------------------- *)

let snapshot t =
  Json.Obj
    [
      ("next_cls_id", Json.Int t.next_cls_id);
      ( "flows",
        Json.List
          (List.map
             (fun en ->
               match Request.flow_to_json en.en_flow with
               | Json.Obj fields ->
                 Json.Obj
                   (("cls_id", Json.Int en.en_cls.Message.cls_id) :: fields)
               | _ -> assert false)
             (by_cls_id t)) );
    ]

let restore ~phy ~num_sources ~params j =
  let* t = create ~phy ~num_sources ~params in
  let* next_cls_id = Result.bind (Json.field "next_cls_id" j) Json.get_int in
  let* flows = Result.bind (Json.field "flows" j) Json.get_list in
  let cls_ids = Hashtbl.create 64 in
  let* () =
    List.fold_left
      (fun acc fj ->
        let* () = acc in
        let* cls_id = Result.bind (Json.field "cls_id" fj) Json.get_int in
        let* f = Request.flow_of_json fj in
        let* () = validate_flow t f in
        if Hashtbl.mem t.flows f.Request.fl_id then
          Error (Printf.sprintf "snapshot: duplicate flow %s" f.Request.fl_id)
        else if Hashtbl.mem cls_ids cls_id then
          Error (Printf.sprintf "snapshot: duplicate class id %d" cls_id)
        else if cls_id >= next_cls_id then
          Error (Printf.sprintf "snapshot: class id %d >= next %d" cls_id
                   next_cls_id)
        else begin
          Hashtbl.add cls_ids cls_id ();
          attach t (mk_entry t ~cls_id f);
          Ok ()
        end)
      (Ok ()) flows
  in
  t.next_cls_id <- next_cls_id;
  Ok t

(* -------------------- counters -------------------- *)

type stats = { st_decisions : int; st_s1_hits : int; st_s1_misses : int }

let stats t =
  {
    st_decisions = t.n_decisions;
    st_s1_hits = t.memo.n_s1_hits;
    st_s1_misses = t.memo.n_s1_misses;
  }
