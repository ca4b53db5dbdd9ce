module Json = Rtnet_util.Json
module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Arrival = Rtnet_workload.Arrival
module Phy = Rtnet_channel.Phy
module Ddcr_params = Rtnet_core.Ddcr_params
module Multi_tree = Rtnet_core.Multi_tree
module Feasibility = Rtnet_core.Feasibility
module Rows = Feasibility.Rows

let ( let* ) = Result.bind

(* An admitted flow.  Its running sums of the Section 4.3 quantities
   and its B_DDCR live in Feasibility's rows, at the entry's [en_row]:
   r(M), u(M) and the interference transmission time are exact
   integers, so delta updates commute and removing a flow restores the
   pre-add values bit-for-bit — which is what lets the differential
   self-check demand *exact* float equality against Feasibility. *)
type entry = {
  en_flow : Request.flow;
  en_cls : Message.cls;  (* the flow as a class, built once at admission *)
  mutable en_row : int;  (* index in [residents] and in [rows] *)
}

(* S₁ = Multi_tree.bound, memoized by its only inputs (u, v) in an
   open-addressed table: a lookup hashes the two ints inline and
   compares them in place, with no key built and no functor closure
   called.  Each slot is a record whose bound is the float box
   Multi_tree returned, so a hit hands that box back instead of
   boxing the float again. *)
module S1_memo = struct
  type slot = { s_u : int; s_v : int; s_bound : float }

  let vacant = { s_u = -1; s_v = -1; s_bound = 0. }

  type t = {
    m : int;
    leaves : int;
    mutable slots : slot array;  (* power-of-two length, at most half full *)
    mutable count : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~m ~t =
    {
      m;
      leaves = t;
      slots = Array.make 256 vacant;
      count = 0;
      hits = 0;
      misses = 0;
    }

  let hits memo = memo.hits
  let misses memo = memo.misses
  let capacity memo = Array.length memo.slots

  (* The index holding (u, v), or the vacant one where it goes. *)
  let rec probe slots i ~u ~v =
    let s = Array.unsafe_get slots i in
    if s == vacant || (s.s_u = u && s.s_v = v) then i
    else probe slots ((i + 1) land (Array.length slots - 1)) ~u ~v

  let[@inline] home slots ~u ~v =
    ((u * 65599) + v) land (Array.length slots - 1)

  let grow memo =
    let old = memo.slots in
    let slots = Array.make (2 * Array.length old) vacant in
    Array.iter
      (fun s ->
        if s != vacant then
          slots.(probe slots (home slots ~u:s.s_u ~v:s.s_v) ~u:s.s_u ~v:s.s_v)
          <- s)
      old;
    memo.slots <- slots

  let find memo ~u ~v =
    let slots = memo.slots in
    let i = probe slots (home slots ~u ~v) ~u ~v in
    let s = Array.unsafe_get slots i in
    if s != vacant then begin
      memo.hits <- memo.hits + 1;
      s.s_bound
    end
    else begin
      memo.misses <- memo.misses + 1;
      let s_bound = Multi_tree.bound ~m:memo.m ~t:memo.leaves ~u ~v in
      slots.(i) <- { s_u = u; s_v = v; s_bound };
      memo.count <- memo.count + 1;
      if 2 * memo.count > Array.length slots then grow memo;
      s_bound
    end
end

type t = {
  phy : Phy.t;
  num_sources : int;
  params : Ddcr_params.t;
  memo : S1_memo.t;
  s1 : u:int -> v:int -> float;  (* S₁ through [memo] *)
  flows : (string, entry) Hashtbl.t;
  rows : Rows.t;
  (* The admitted entries, densely in [0, Rows.length rows) and in no
     particular order (detach moves the last one into the hole, as
     [rows] does with its row); each knows its index.  Slots past the
     last row are never read. *)
  mutable residents : entry array;
  mutable next_cls_id : int;
  mutable n_decisions : int;
}

let create ~phy ~num_sources ~params =
  let* () = Ddcr_params.validate params ~num_sources in
  let memo =
    S1_memo.create ~m:params.Ddcr_params.static_m
      ~t:params.Ddcr_params.static_leaves
  in
  Ok
    {
      phy;
      num_sources;
      params;
      memo;
      s1 = (fun ~u ~v -> S1_memo.find memo ~u ~v);
      flows = Hashtbl.create 64;
      rows = Rows.create params phy;
      residents = [||];
      next_cls_id = 0;
      n_decisions = 0;
    }

let size t = Rows.length t.rows
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

(* -------------------- attach / detach -------------------- *)

(* Every term, the bound and the loops over the residents are
   Feasibility's ({!Rows}); the engine keeps the entries in the same
   order as the rows. *)

let mk_entry ~cls_id (f : Request.flow) =
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
    en_row = -1;
  }

(* Add [en] to the admitted set: its row takes the next index, and
   [residents] doubles when full. *)
let attach t en =
  let i = Rows.attach t.rows en.en_cls in
  if i = Array.length t.residents then begin
    let residents = Array.make (max 16 (2 * i)) en in
    Array.blit t.residents 0 residents 0 i;
    t.residents <- residents
  end;
  t.residents.(i) <- en;
  en.en_row <- i;
  Hashtbl.replace t.flows en.en_flow.Request.fl_id en

(* Swap-remove: the last resident takes [en]'s index, as its row does. *)
let detach t en =
  Hashtbl.remove t.flows en.en_flow.Request.fl_id;
  Rows.detach t.rows en.en_row;
  let moved = t.residents.(Rows.length t.rows) in
  t.residents.(en.en_row) <- moved;
  moved.en_row <- en.en_row

(* A merge sort of the residents: with the heap sort of [Array.sort]
   the self-check ran 5–9 % slower than the list-held engine's. *)
let by_cls_id t =
  List.sort
    (fun a b -> Int.compare a.en_cls.Message.cls_id b.en_cls.Message.cls_id)
    (Array.to_list (Array.sub t.residents 0 (size t)))

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
   ties to the lower class id — a strict order on the residents, so the
   answer does not depend on where detach left them.  The dirty bounds
   are refreshed first, unboxed in place; the headroom and the verdict
   are kept in unboxed locals, so the walk allocates nothing. *)
let evaluate t =
  let n = size t in
  if n = 0 then Empty
  else begin
    Rows.refresh t.rows ~s1:t.s1;
    let bounds = Rows.bounds t.rows in
    let best = ref 0 and best_h = ref 0. and ok = ref true in
    for i = 0 to n - 1 do
      let en = Array.unsafe_get t.residents i in
      let d = float_of_int en.en_flow.Request.fl_deadline in
      let b = Float.Array.unsafe_get bounds i in
      if not (b <= d) then ok := false;
      let h = d -. b in
      if
        i = 0 || h < !best_h
        || (not (!best_h < h))
           && en.en_cls.Message.cls_id
              < t.residents.(!best).en_cls.Message.cls_id
      then begin
        best := i;
        best_h := h
      end
    done;
    Eval
      {
        binding = t.residents.(!best).en_flow.Request.fl_id;
        headroom = !best_h;
        ok = !ok;
      }
  end

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
  let en = mk_entry ~cls_id:t.next_cls_id f in
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
    attach t (mk_entry ~cls_id:t.next_cls_id f);
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
  match size t with
  | 0 -> Ok ()
  | _ -> (
    let sorted = by_cls_id t in
    match instance_of t sorted with
    | Error e -> Error ("selfcheck: " ^ e)
    | Ok inst ->
      let report = Feasibility.check t.params inst in
      let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
      Rows.refresh t.rows ~s1:t.s1;
      let same cr en =
        let name = en.en_flow.Request.fl_id and i = en.en_row in
        let r = Rows.r t.rows i and u = Rows.u t.rows i in
        let v = Rows.v t.rows i and b = Float.Array.get (Rows.bounds t.rows) i in
        if cr.Feasibility.cr_r <> r then
          fail "selfcheck: %s: r %d <> %d" name cr.Feasibility.cr_r r
        else if cr.Feasibility.cr_u <> u then
          fail "selfcheck: %s: u %d <> %d" name cr.Feasibility.cr_u u
        else if cr.Feasibility.cr_v <> v then
          fail "selfcheck: %s: v %d <> %d" name cr.Feasibility.cr_v v
        else if cr.Feasibility.cr_bound <> b then
          fail "selfcheck: %s: bound %.17g <> %.17g" name
            cr.Feasibility.cr_bound b
        else if
          cr.Feasibility.cr_feasible
          <> (b <= float_of_int en.en_flow.Request.fl_deadline)
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
          attach t (mk_entry ~cls_id f);
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
    st_s1_hits = S1_memo.hits t.memo;
    st_s1_misses = S1_memo.misses t.memo;
  }
