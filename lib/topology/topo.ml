module Instance = Rtnet_workload.Instance
module Scenarios = Rtnet_workload.Scenarios
module Json = Rtnet_util.Json
module Multi_bus = Rtnet_core.Multi_bus
module Fault_plan = Rtnet_channel.Fault_plan

type workload = {
  wk_kind : string;
  wk_size : int;
  wk_load : float;
  wk_deadline_windows : float;
}

type segment = {
  sg_name : string;
  sg_instance : Instance.t;
  sg_workload : workload option;
  sg_fault : Fault_plan.spec option;
}

type bridge = {
  br_name : string;
  br_from : string;
  br_to : string;
  br_station : int;
  br_latency : int;
  br_capacity : int;
}

type flow = {
  fl_name : string;
  fl_cls : int;
  fl_path : string list;
  fl_criticality : int;
}

let default_capacity = 64

type t = {
  tp_name : string;
  tp_segments : segment list;
  tp_bridges : bridge list;
  tp_flows : flow list;
}

let relabel ~name inst =
  Instance.create_exn ~name ~phy:inst.Instance.phy
    ~num_sources:inst.Instance.num_sources
    (Array.to_list inst.Instance.classes)

let segment_of_workload ~name wk =
  match
    Scenarios.of_kind ~kind:wk.wk_kind ~size:wk.wk_size ~load:wk.wk_load
      ~deadline_windows:wk.wk_deadline_windows
  with
  | Error e -> Error (Printf.sprintf "segment %s: %s" name e)
  | Ok inst ->
    Ok
      {
        sg_name = name;
        sg_instance = relabel ~name inst;
        sg_workload = Some wk;
        sg_fault = None;
      }

(* The first element, in list order, that occurs again later: the first
   whose value occurs more than once. *)
let dup l =
  let count = Hashtbl.create 64 in
  List.iter
    (fun x ->
      Hashtbl.replace count x
        (1 + Option.value ~default:0 (Hashtbl.find_opt count x)))
    l;
  List.find_opt (fun x -> Hashtbl.find count x > 1) l

let create ~name ~segments ~bridges ~flows =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let seg_names = List.map (fun s -> s.sg_name) segments in
  let is_segment = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace is_segment n ()) seg_names;
  if name = "" then err "topology name is empty"
  else if segments = [] then err "topology %s has no segments" name
  else begin
    match dup seg_names with
    | Some n -> err "duplicate segment name %S" n
    | None -> (
      match dup (List.map (fun b -> b.br_name) bridges) with
      | Some n -> err "duplicate bridge name %S" n
      | None -> (
        match dup (List.map (fun f -> f.fl_name) flows) with
        | Some n -> err "duplicate flow name %S" n
        | None -> (
          match dup (List.map (fun b -> (b.br_from, b.br_to)) bridges) with
          | Some (f, t) -> err "two bridges join %s -> %s" f t
          | None ->
            let bad =
              List.find_opt
                (fun b ->
                  (not (Hashtbl.mem is_segment b.br_from))
                  || (not (Hashtbl.mem is_segment b.br_to))
                  || b.br_from = b.br_to || b.br_station < 0
                  || b.br_latency < 0 || b.br_capacity < 1)
                bridges
            in
            (match bad with
            | Some b ->
              err
                "bridge %s is malformed (endpoints must name distinct \
                 existing segments, station and latency must be >= 0, \
                 capacity >= 1)"
                b.br_name
            | None ->
              Ok
                {
                  tp_name = name;
                  tp_segments = segments;
                  tp_bridges = bridges;
                  tp_flows = flows;
                }))))
  end

let create_exn ~name ~segments ~bridges ~flows =
  match create ~name ~segments ~bridges ~flows with
  | Ok t -> t
  | Error e -> invalid_arg ("Topo.create_exn: " ^ e)

let segment_lookup t =
  let tbl = Hashtbl.create (2 * List.length t.tp_segments) in
  List.iter
    (fun s ->
      if not (Hashtbl.mem tbl s.sg_name) then Hashtbl.add tbl s.sg_name s)
    t.tp_segments;
  Hashtbl.find_opt tbl

(* [t]'s bridges grouped by the segment [key] names, each group in
   declaration order; one pass over the bridges. *)
let bridges_by key t =
  let tbl = Hashtbl.create (2 * List.length t.tp_segments) in
  List.iter
    (fun b ->
      let k = key b in
      Hashtbl.replace tbl k
        (b :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    (List.rev t.tp_bridges);
  fun name -> Option.value ~default:[] (Hashtbl.find_opt tbl name)

let bridges_into t = bridges_by (fun b -> b.br_to) t

let find_bridge t =
  let out_of = bridges_by (fun b -> b.br_from) t in
  fun ~from_ ~to_ -> List.find_opt (fun b -> b.br_to = to_) (out_of from_)

module Ints = Set.Make (Int)

(* Kahn's algorithm, stable on the declaration order: among the nodes
   with no remaining upstream edge, the first-declared segment goes
   next — so the topological order (and everything derived from it:
   wavefront levels, fingerprints) is a pure function of the value.
   The ready segments are a set of declaration indices, so each step
   takes the least in logarithmic time.  Returns the names, each
   segment's downstream indices (one per bridge) and the order. *)
let kahn t =
  let names = Array.of_list (List.map (fun s -> s.sg_name) t.tp_segments) in
  let n = Array.length names in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  let indeg = Array.make n 0 and down = Array.make n [] in
  List.iter
    (fun b ->
      match Hashtbl.find_opt index b.br_to with
      | None -> ()
      | Some d -> (
        indeg.(d) <- indeg.(d) + 1;
        match Hashtbl.find_opt index b.br_from with
        | Some f -> down.(f) <- d :: down.(f)
        | None -> ()))
    t.tp_bridges;
  let ready = ref Ints.empty in
  Array.iteri (fun i d -> if d = 0 then ready := Ints.add i !ready) indeg;
  let rec go acc =
    match Ints.min_elt_opt !ready with
    | Some i ->
      ready := Ints.remove i !ready;
      List.iter
        (fun d ->
          indeg.(d) <- indeg.(d) - 1;
          if indeg.(d) = 0 then ready := Ints.add d !ready)
        down.(i);
      indeg.(i) <- -1;
      go (i :: acc)
    | None ->
      let unsorted =
        List.filter (fun i -> indeg.(i) >= 0) (List.init n Fun.id)
      in
      if unsorted = [] then Ok (names, down, List.rev acc)
      else
        Error
          (Printf.sprintf "bridge graph is cyclic (among segments %s)"
             (String.concat ", " (List.map (fun i -> names.(i)) unsorted)))
  in
  go []

let toposort t =
  Result.map
    (fun (names, _, order) -> List.map (fun i -> names.(i)) order)
    (kahn t)

let levels t =
  match kahn t with
  | Error e -> Error e
  | Ok (names, down, order) ->
    let level = Array.make (Array.length names) 0 in
    List.iter
      (fun i ->
        List.iter (fun d -> level.(d) <- max level.(d) (level.(i) + 1)) down.(i))
      order;
    let groups = Array.make (1 + Array.fold_left max 0 level) [] in
    List.iter
      (fun i -> groups.(level.(i)) <- names.(i) :: groups.(level.(i)))
      (List.rev order);
    Ok (Array.to_list groups)

let route_errors t =
  let find_segment = segment_lookup t and find_bridge = find_bridge t in
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let origins = Hashtbl.create 8 in
  List.iter
    (fun f ->
      (match f.fl_path with
      | [] | [ _ ] ->
        add "flow %s: path must name at least 2 segments" f.fl_name
      | path ->
        (match dup path with
        | Some n -> add "flow %s: segment %s repeats on the path" f.fl_name n
        | None -> ());
        List.iter
          (fun n ->
            if find_segment n = None then
              add "flow %s: unknown path segment %S" f.fl_name n)
          path;
        let rec hops = function
          | a :: (b :: _ as rest) ->
            if
              find_segment a <> None
              && find_segment b <> None
              && find_bridge ~from_:a ~to_:b = None
            then add "flow %s: no bridge joins %s -> %s" f.fl_name a b;
            hops rest
          | [ _ ] | [] -> ()
        in
        hops path);
      match f.fl_path with
      | origin :: _ -> (
        match find_segment origin with
        | None -> ()
        | Some seg ->
          if
            not
              (List.exists
                 (fun c -> c.Rtnet_workload.Message.cls_id = f.fl_cls)
                 (Instance.classes seg.sg_instance))
          then
            add "flow %s: segment %s has no class %d" f.fl_name origin f.fl_cls
          else begin
            match Hashtbl.find_opt origins (origin, f.fl_cls) with
            | Some other ->
              add "flows %s and %s share origin class %d of %s" other
                f.fl_name f.fl_cls origin
            | None -> Hashtbl.replace origins (origin, f.fl_cls) f.fl_name
          end)
      | [] -> ())
    t.tp_flows;
  List.rev !errs

let aggregate_sources t =
  List.fold_left
    (fun acc s -> acc + s.sg_instance.Instance.num_sources)
    0 t.tp_segments

let tree ~name ~segments ~fanout ~sources ~load ~deadline_windows
    ?(bridge_latency = 4096) () =
  if segments < 1 then invalid_arg "Topo.tree: segments < 1";
  if fanout < 1 then invalid_arg "Topo.tree: fanout < 1";
  let wk =
    {
      wk_kind = "uniform";
      wk_size = sources;
      wk_load = load;
      wk_deadline_windows = deadline_windows;
    }
  in
  let seg_name i = Printf.sprintf "seg%d" i in
  let segs =
    List.init segments (fun i ->
        match segment_of_workload ~name:(seg_name i) wk with
        | Ok s -> s
        | Error e -> invalid_arg ("Topo.tree: " ^ e))
  in
  let parent i = (i - 1) / fanout in
  let bridges =
    List.init (segments - 1) (fun k ->
        let i = k + 1 in
        let p = parent i in
        let ordinal = i - ((p * fanout) + 1) in
        {
          br_name = Printf.sprintf "br%d" i;
          br_from = seg_name i;
          br_to = seg_name p;
          br_station = sources + ordinal;
          br_latency = bridge_latency;
          br_capacity = default_capacity;
        })
  in
  let flows =
    List.init (segments - 1) (fun k ->
        let i = k + 1 in
        let rec path j acc = if j = 0 then List.rev (seg_name 0 :: acc) else path (parent j) (seg_name j :: acc) in
        {
          fl_name = Printf.sprintf "flow%d" i;
          fl_cls = 0;
          fl_path = path i [];
          fl_criticality = 0;
        })
  in
  create_exn ~name ~segments:segs ~bridges ~flows

let of_assignment ~name (a : Multi_bus.assignment) =
  let segments =
    List.map
      (fun inst ->
        {
          sg_name = inst.Instance.name;
          sg_instance = inst;
          sg_workload = None;
          sg_fault = None;
        })
      (Array.to_list a.Multi_bus.buses)
  in
  create_exn ~name ~segments ~bridges:[] ~flows:[]

(* Per-segment fault plans.  A plan's crash-window sources must name a
   station that exists on its segment: a declared traffic source, or an
   incoming bridge's station (which the elaboration adds when it is
   [>= num_sources]).  Anything else is a spec bug — caught here (and
   surfaced by the CFG-TOPO-FAULT lint) rather than silently simulating
   the crash of a station nobody listens to. *)
let with_faults t plans =
  let find_segment = segment_lookup t in
  match List.find_opt (fun (n, _) -> find_segment n = None) plans with
  | Some (n, _) -> Error (Printf.sprintf "fault plan names unknown segment %S" n)
  | None ->
    (* The first plan naming a segment applies to it. *)
    let plan_of = Hashtbl.create (2 * List.length plans) in
    List.iter
      (fun (n, sp) ->
        if not (Hashtbl.mem plan_of n) then Hashtbl.add plan_of n sp)
      plans;
    let segments =
      List.map
        (fun s ->
          match Hashtbl.find_opt plan_of s.sg_name with
          | None -> s
          | Some sp ->
            let sp =
              match s.sg_fault with
              | None -> sp
              | Some prev -> Fault_plan.compose prev sp
            in
            { s with sg_fault = Some sp })
        t.tp_segments
    in
    Ok { t with tp_segments = segments }

let fault_errors t =
  let bridges_into = bridges_into t in
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun s ->
      match s.sg_fault with
      | None -> ()
      | Some sp ->
        (match Fault_plan.validate sp with
        | Ok () -> ()
        | Error e -> add "segment %s: invalid fault plan: %s" s.sg_name e);
        (* A plan may name a declared source or an incoming bridge
           station. *)
        let bridges =
          List.map (fun b -> b.br_station) (bridges_into s.sg_name)
        in
        match
          Fault_plan.check_stations ~extra:bridges
            ~stations:s.sg_instance.Instance.num_sources sp
        with
        | Ok () -> ()
        | Error e -> add "segment %s: %s" s.sg_name e)
    t.tp_segments;
  List.rev !errs

(* JSON spec codec.  Canonical key order; floats only where the value
   is genuinely fractional, so specs round-trip byte-identically. *)

let workload_to_json wk =
  Json.Obj
    [
      ("kind", Json.String wk.wk_kind);
      ("size", Json.Int wk.wk_size);
      ("load", Json.Float wk.wk_load);
      ("deadline_windows", Json.Float wk.wk_deadline_windows);
    ]

let workload_of_json j =
  let ( let* ) = Result.bind in
  let* kind = Result.bind (Json.field "kind" j) Json.get_string in
  let* size = Result.bind (Json.field "size" j) Json.get_int in
  let* load = Result.bind (Json.field "load" j) Json.get_float in
  let* dw = Result.bind (Json.field "deadline_windows" j) Json.get_float in
  Ok { wk_kind = kind; wk_size = size; wk_load = load; wk_deadline_windows = dw }

let to_json t =
  let ( let* ) = Result.bind in
  let* segs =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        match s.sg_workload with
        | None ->
          Error
            (Printf.sprintf
               "segment %s has no workload descriptor (not serializable)"
               s.sg_name)
        | Some wk ->
          Ok
            (Json.Obj
               ([
                  ("name", Json.String s.sg_name);
                  ("workload", workload_to_json wk);
                ]
               (* Emitted only when set, so pre-fault specs (and the
                  campaign hashes derived from them) stay byte-identical. *)
               @
               match s.sg_fault with
               | None -> []
               | Some sp -> [ ("fault_plan", Fault_plan.spec_to_json sp) ])
            :: acc))
      (Ok []) t.tp_segments
  in
  Ok
    (Json.Obj
       [
         ("name", Json.String t.tp_name);
         ("segments", Json.List (List.rev segs));
         ( "bridges",
           Json.List
             (List.map
                (fun b ->
                  Json.Obj
                    ([
                       ("name", Json.String b.br_name);
                       ("from", Json.String b.br_from);
                       ("to", Json.String b.br_to);
                       ("station", Json.Int b.br_station);
                       ("latency", Json.Int b.br_latency);
                     ]
                    @
                    if b.br_capacity = default_capacity then []
                    else [ ("capacity", Json.Int b.br_capacity) ]))
                t.tp_bridges) );
         ( "flows",
           Json.List
             (List.map
                (fun f ->
                  Json.Obj
                    ([
                       ("name", Json.String f.fl_name);
                       ("class", Json.Int f.fl_cls);
                       ( "path",
                         Json.List
                           (List.map (fun s -> Json.String s) f.fl_path) );
                     ]
                    @
                    if f.fl_criticality = 0 then []
                    else [ ("criticality", Json.Int f.fl_criticality) ]))
                t.tp_flows) );
       ])

let of_json j =
  let ( let* ) = Result.bind in
  let segment_of_json sj =
    let* sname = Result.bind (Json.field "name" sj) Json.get_string in
    let* wk = Result.bind (Json.field "workload" sj) workload_of_json in
    let* seg = segment_of_workload ~name:sname wk in
    let* fault =
      Json.field_or "fault_plan" ~default:None
        (fun fj ->
          match Fault_plan.spec_of_json fj with
          | Ok sp -> Ok (Some sp)
          | Error e ->
            Error (Printf.sprintf "segment %s: fault_plan: %s" sname e))
        sj
    in
    Ok { seg with sg_fault = fault }
  in
  let bridge_of_json bj =
    let* bname = Result.bind (Json.field "name" bj) Json.get_string in
    let* from_ = Result.bind (Json.field "from" bj) Json.get_string in
    let* to_ = Result.bind (Json.field "to" bj) Json.get_string in
    let* station = Result.bind (Json.field "station" bj) Json.get_int in
    let* latency = Result.bind (Json.field "latency" bj) Json.get_int in
    let* capacity =
      Json.field_or "capacity" ~default:default_capacity Json.get_int bj
    in
    Ok
      {
        br_name = bname;
        br_from = from_;
        br_to = to_;
        br_station = station;
        br_latency = latency;
        br_capacity = capacity;
      }
  in
  let flow_of_json fj =
    let* fname = Result.bind (Json.field "name" fj) Json.get_string in
    let* cls = Result.bind (Json.field "class" fj) Json.get_int in
    let* path =
      Result.bind (Json.field "path" fj) (Json.list_of Json.get_string)
    in
    let* criticality = Json.field_or "criticality" ~default:0 Json.get_int fj in
    Ok
      {
        fl_name = fname;
        fl_cls = cls;
        fl_path = path;
        fl_criticality = criticality;
      }
  in
  let* name = Result.bind (Json.field "name" j) Json.get_string in
  let* segments =
    Result.bind (Json.field "segments" j) (Json.list_of segment_of_json)
  in
  let* bridges =
    Json.field_or "bridges" ~default:[] (Json.list_of bridge_of_json) j
  in
  let* flows =
    Json.field_or "flows" ~default:[] (Json.list_of flow_of_json) j
  in
  create ~name ~segments ~bridges ~flows

let load_file path = Json.load_file path of_json

let pp fmt t =
  Format.fprintf fmt "@[<v>topology %s: %d segments, %d bridges, %d flows@,"
    t.tp_name
    (List.length t.tp_segments)
    (List.length t.tp_bridges)
    (List.length t.tp_flows);
  List.iter
    (fun s ->
      Format.fprintf fmt "  segment %s: %d sources, %d classes%s@," s.sg_name
        s.sg_instance.Instance.num_sources
        (Array.length s.sg_instance.Instance.classes)
        (match s.sg_fault with
        | None -> ""
        | Some sp -> Printf.sprintf " (faults: %s)" (Fault_plan.label sp)))
    t.tp_segments;
  List.iter
    (fun b ->
      Format.fprintf fmt "  bridge %s: %s -> %s (station %d, latency %d)@,"
        b.br_name b.br_from b.br_to b.br_station b.br_latency)
    t.tp_bridges;
  List.iter
    (fun f ->
      Format.fprintf fmt "  flow %s: class %d via %s@," f.fl_name f.fl_cls
        (String.concat " -> " f.fl_path))
    t.tp_flows;
  Format.fprintf fmt "@]"
