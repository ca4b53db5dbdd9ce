module Int_math = Rtnet_util.Int_math
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

(* Per-admitted-flow cache of the Section 4.3 quantities.  [en_r] is
   the rank sum *including* the paper's [−1] left out (so r(M) =
   en_r − 1); [en_u]/[en_tx] are the interference count and its
   transmission time.  All three are exact integer sums of per-pair
   terms, so delta updates commute and removing a flow restores the
   pre-add values bit-for-bit — which is what lets the differential
   self-check demand *exact* float equality against Feasibility. *)
type entry = {
  en_flow : Request.flow;
  en_cls_id : int;
  en_wire : int;
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

type t = {
  phy : Phy.t;
  num_sources : int;
  params : Ddcr_params.t;
  arbitrated : bool;
  x : float;
  eq5 : int;  (* cached time-tree search bound ξ₂ = Xi.eq5(m, F) *)
  s1_tab : float S1_tab.t;  (* (u, v) ↦ ξ̃ bound S₁ *)
  flows : (string, entry) Hashtbl.t;
  mutable entries : entry list;  (* unordered; ties broken by cls_id *)
  mutable next_cls_id : int;
  mutable n_decisions : int;
  mutable n_s1_hits : int;
  mutable n_s1_misses : int;
}

let create ~phy ~num_sources ~params =
  let* () = Ddcr_params.validate params ~num_sources in
  Ok
    {
      phy;
      num_sources;
      params;
      arbitrated = phy.Phy.semantics = Phy.Arbitration;
      x = float_of_int phy.Phy.slot_bits;
      eq5 =
        Xi.eq5 ~m:params.Ddcr_params.time_m ~t:params.Ddcr_params.time_leaves;
      s1_tab = S1_tab.create 256;
      flows = Hashtbl.create 64;
      entries = [];
      next_cls_id = 0;
      n_decisions = 0;
      n_s1_hits = 0;
      n_s1_misses = 0;
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

(* The per-pair terms mirror the r(M), u(M) and transmission-time sums
   of Feasibility verbatim — integer for integer. *)

let term_r ~m_deadline (c : Request.flow) =
  Int_math.cdiv m_deadline c.Request.fl_window * c.Request.fl_burst

let term_u ~m_deadline ~m_wire (c : Request.flow) =
  let numerator = m_deadline + c.Request.fl_deadline - m_wire in
  max 0 (Int_math.cdiv numerator c.Request.fl_window) * c.Request.fl_burst

let s1 t ~u ~v =
  let key = (u, v) in
  match S1_tab.find t.s1_tab key with
  | s ->
    t.n_s1_hits <- t.n_s1_hits + 1;
    s
  | exception Not_found ->
    t.n_s1_misses <- t.n_s1_misses + 1;
    let s =
      Multi_tree.bound ~m:t.params.Ddcr_params.static_m
        ~t:t.params.Ddcr_params.static_leaves ~u ~v
    in
    S1_tab.add t.s1_tab key s;
    s

let v_of t en =
  1 + ((en.en_r - 1) / Ddcr_params.nu t.params en.en_flow.Request.fl_source)

(* B_DDCR from the cached integers; bit-identical to
   Feasibility.latency_bound{,_arbitrated} because every operation and
   its order match. *)
let bound_of t en =
  let u = en.en_u in
  let v = v_of t en in
  if t.arbitrated then
    float_of_int en.en_tx +. (t.x *. float_of_int (u + Int_math.cdiv v 2))
  else
    float_of_int en.en_tx
    +. (t.x *. (s1 t ~u ~v +. float_of_int (Int_math.cdiv v 2 * t.eq5)))

let refresh t en =
  if en.en_dirty then begin
    en.en_bound <- bound_of t en;
    en.en_dirty <- false
  end

(* -------------------- attach / detach -------------------- *)

let mk_entry t ~cls_id f =
  {
    en_flow = f;
    en_cls_id = cls_id;
    en_wire = Phy.tx_bits t.phy f.Request.fl_bits;
    en_r = 0;
    en_u = 0;
    en_tx = 0;
    en_bound = 0.;
    en_dirty = true;
  }

(* Add [en] to the admitted set, pushing its terms into every resident
   class and summing the residents' (and its own) terms into it.  Only
   classes whose sums actually moved are marked dirty — the dirty set. *)
let attach t en =
  let f = en.en_flow in
  en.en_r <- 0;
  en.en_u <- 0;
  en.en_tx <- 0;
  en.en_dirty <- true;
  let fold other =
    let g = other.en_flow in
    let du =
      term_u ~m_deadline:g.Request.fl_deadline ~m_wire:other.en_wire f
    in
    other.en_u <- other.en_u + du;
    other.en_tx <- other.en_tx + (du * en.en_wire);
    if du <> 0 then other.en_dirty <- true;
    if g.Request.fl_source = f.Request.fl_source then begin
      other.en_r <- other.en_r + term_r ~m_deadline:g.Request.fl_deadline f;
      other.en_dirty <- true
    end;
    let du' =
      term_u ~m_deadline:f.Request.fl_deadline ~m_wire:en.en_wire g
    in
    en.en_u <- en.en_u + du';
    en.en_tx <- en.en_tx + (du' * other.en_wire);
    if g.Request.fl_source = f.Request.fl_source then
      en.en_r <- en.en_r + term_r ~m_deadline:f.Request.fl_deadline g
  in
  List.iter fold t.entries;
  let self = term_u ~m_deadline:f.Request.fl_deadline ~m_wire:en.en_wire f in
  en.en_u <- en.en_u + self;
  en.en_tx <- en.en_tx + (self * en.en_wire);
  en.en_r <- en.en_r + term_r ~m_deadline:f.Request.fl_deadline f;
  Hashtbl.replace t.flows f.Request.fl_id en;
  t.entries <- en :: t.entries

let detach t en =
  let f = en.en_flow in
  Hashtbl.remove t.flows f.Request.fl_id;
  t.entries <- List.filter (fun e -> e != en) t.entries;
  List.iter
    (fun other ->
      let g = other.en_flow in
      let du =
        term_u ~m_deadline:g.Request.fl_deadline ~m_wire:other.en_wire f
      in
      other.en_u <- other.en_u - du;
      other.en_tx <- other.en_tx - (du * en.en_wire);
      if du <> 0 then other.en_dirty <- true;
      if g.Request.fl_source = f.Request.fl_source then begin
        other.en_r <- other.en_r - term_r ~m_deadline:g.Request.fl_deadline f;
        other.en_dirty <- true
      end)
    t.entries

(* -------------------- evaluation -------------------- *)

type eval = Empty | Eval of { binding : string; headroom : float; ok : bool }

let better (id_a, cls_a, h_a) (id_b, cls_b, h_b) =
  if h_a < h_b then (id_a, cls_a, h_a)
  else if h_b < h_a then (id_b, cls_b, h_b)
  else if cls_a <= cls_b then (id_a, cls_a, h_a)
  else (id_b, cls_b, h_b)

(* The binding entry is the one with the least headroom d − B_DDCR,
   ties to the lower class id — the rule [better] applies, walked over
   the entries themselves so no tuple is built per resident. *)
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
        else if best.en_cls_id <= en.en_cls_id then best
        else en
      in
      walk best ok rest
  in
  match t.entries with [] -> Empty | first :: _ as all -> walk first true all

(* From-scratch twin of [evaluate]: every sum recomputed by the O(n²)
   pairwise loops and every S₁ by a direct Multi_tree call — no cache
   is read or written.  The bench guard pins [decide] at ≥10× this. *)
let evaluate_full t =
  match t.entries with
  | [] -> Empty
  | entries_hd :: _ ->
    let fresh en =
      let f = en.en_flow in
      let r = ref 0 and u = ref 0 and tx = ref 0 in
      List.iter
        (fun other ->
          let g = other.en_flow in
          let du =
            term_u ~m_deadline:f.Request.fl_deadline ~m_wire:en.en_wire g
          in
          u := !u + du;
          tx := !tx + (du * other.en_wire);
          if g.Request.fl_source = f.Request.fl_source then
            r := !r + term_r ~m_deadline:f.Request.fl_deadline g)
        t.entries;
      let v =
        1 + ((!r - 1) / Ddcr_params.nu t.params f.Request.fl_source)
      in
      let bound =
        if t.arbitrated then
          float_of_int !tx
          +. (t.x *. float_of_int (!u + Int_math.cdiv v 2))
        else
          float_of_int !tx
          +. t.x
             *. (Multi_tree.bound ~m:t.params.Ddcr_params.static_m
                   ~t:t.params.Ddcr_params.static_leaves ~u:!u ~v
                +. float_of_int
                     (Int_math.cdiv v 2
                     * Xi.eq5 ~m:t.params.Ddcr_params.time_m
                         ~t:t.params.Ddcr_params.time_leaves))
      in
      (en, bound)
    in
    let first = fresh entries_hd in
    let hr (en, bound) = float_of_int en.en_flow.Request.fl_deadline -. bound in
    let init =
      let en, _ = first in
      (en.en_flow.Request.fl_id, en.en_cls_id, hr first)
    in
    let ok = ref true in
    let worst =
      List.fold_left
        (fun acc en ->
          let ((_, bound) as fb) = if en == entries_hd then first else fresh en in
          if not (bound <= float_of_int en.en_flow.Request.fl_deadline) then
            ok := false;
          if en == entries_hd then acc
          else better acc (en.en_flow.Request.fl_id, en.en_cls_id, hr fb))
        init t.entries
    in
    let binding, _, headroom = worst in
    Eval { binding; headroom; ok = !ok }

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

let decide_with ~eval t req =
  t.n_decisions <- t.n_decisions + 1;
  match req with
  | Request.Add f -> (
    match validate_flow t f with
    | Error e -> Rejected (Invalid_params e)
    | Ok () ->
      if Hashtbl.mem t.flows f.Request.fl_id then Rejected Duplicate_flow
      else begin
        let en = mk_entry t ~cls_id:t.next_cls_id f in
        attach t en;
        match eval t with
        | Empty -> assert false
        | Eval { binding; headroom; ok } ->
          if ok then begin
            t.next_cls_id <- t.next_cls_id + 1;
            Accepted { binding = Some (binding, headroom) }
          end
          else begin
            detach t en;
            Rejected (Infeasible { binding; headroom })
          end
      end)
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
      | Some old -> (
        detach t old;
        let en = mk_entry t ~cls_id:t.next_cls_id f in
        attach t en;
        match eval t with
        | Empty -> assert false
        | Eval { binding; headroom; ok } ->
          if ok then begin
            t.next_cls_id <- t.next_cls_id + 1;
            Accepted { binding = Some (binding, headroom) }
          end
          else begin
            (* Atomic replace: infeasible new parameters leave the old
               flow admitted under its original class id. *)
            detach t en;
            attach t old;
            Rejected (Infeasible { binding; headroom })
          end)))

let decide t req = decide_with ~eval:evaluate t req
let decide_full t req = decide_with ~eval:evaluate_full t req

(* Replay a journaled decision without re-deciding: accepted requests
   mutate, rejections are no-ops.  Errors mean the journal does not
   describe this engine's history. *)
let apply t req decision =
  match (req, decision) with
  | _, Rejected _ -> Ok ()
  | Request.Add f, Accepted _ ->
    if Hashtbl.mem t.flows f.Request.fl_id then
      Error (Printf.sprintf "journal: duplicate add of %s" f.Request.fl_id)
    else begin
      attach t (mk_entry t ~cls_id:t.next_cls_id f);
      t.next_cls_id <- t.next_cls_id + 1;
      Ok ()
    end
  | Request.Remove id, Accepted _ -> (
    match Hashtbl.find_opt t.flows id with
    | None -> Error (Printf.sprintf "journal: remove of unknown %s" id)
    | Some en ->
      detach t en;
      Ok ())
  | Request.Modify f, Accepted _ -> (
    match Hashtbl.find_opt t.flows f.Request.fl_id with
    | None -> Error (Printf.sprintf "journal: modify of unknown %s" f.Request.fl_id)
    | Some old ->
      detach t old;
      attach t (mk_entry t ~cls_id:t.next_cls_id f);
      t.next_cls_id <- t.next_cls_id + 1;
      Ok ())

(* -------------------- views -------------------- *)

let by_cls_id t =
  List.sort (fun a b -> compare a.en_cls_id b.en_cls_id) t.entries

let flows t =
  List.map
    (fun en -> (en.en_flow, en.en_cls_id))
    (by_cls_id t)

let headroom t =
  match evaluate t with
  | Empty -> None
  | Eval { binding; headroom; _ } -> Some (binding, headroom)

let cls_of_entry en =
  let f = en.en_flow in
  {
    Message.cls_id = en.en_cls_id;
    cls_name = f.Request.fl_id;
    cls_source = f.Request.fl_source;
    cls_bits = f.Request.fl_bits;
    cls_deadline = f.Request.fl_deadline;
    cls_burst = f.Request.fl_burst;
    cls_window = f.Request.fl_window;
  }

(* [sorted] is the entries in class-id order ({!by_cls_id}). *)
let instance_of t sorted =
  match sorted with
  | [] -> Error "no admitted flows"
  | _ ->
    Instance.create ~name:"admit" ~phy:t.phy ~num_sources:t.num_sources
      (List.map
         (fun en ->
           ( cls_of_entry en,
             Arrival.Periodic { offset = en.en_flow.Request.fl_offset } ))
         sorted)

let instance t = instance_of t (by_cls_id t)

(* -------------------- differential self-check -------------------- *)

(* The invariant the whole fast path hangs on: the cached answer must
   equal a from-scratch Feasibility.check — not approximately, exactly,
   down to the float bit pattern (both sides compute the same integer
   sums and the same float expression).  The report's rows are in class
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
        if cr.Feasibility.cr_r <> en.en_r - 1 then
          fail "selfcheck: %s: r %d <> %d" name cr.Feasibility.cr_r
            (en.en_r - 1)
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
          when en.en_cls_id < cr.Feasibility.cr_cls.Message.cls_id ->
          walk rows ens'
        | cr :: rows', en :: ens'
          when en.en_cls_id = cr.Feasibility.cr_cls.Message.cls_id -> (
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
                 Json.Obj (("cls_id", Json.Int en.en_cls_id) :: fields)
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
    st_s1_hits = t.n_s1_hits;
    st_s1_misses = t.n_s1_misses;
  }
