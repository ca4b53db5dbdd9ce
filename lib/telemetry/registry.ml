module Json = Rtnet_util.Json
module Table = Rtnet_util.Table
module Summary = Rtnet_stats.Summary

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, Summary.Histogram.h) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let incr t name = Stdlib.incr (counter t name)
let add t name n = counter t name := !(counter t name) + n

let gauge t name init =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r
  | None ->
    let r = ref init in
    Hashtbl.add t.gauges name r;
    r

let set_gauge t name v = gauge t name v := v

let max_gauge t name v =
  let r = gauge t name v in
  if v > !r then r := v

let add_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add t.gauges name (ref v)

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = Summary.Histogram.create_log2 () in
    Hashtbl.add t.histograms name h;
    h

let observe t name v = Summary.Histogram.add (histogram t name) v

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge_value t name =
  Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * (int * int) list) list;
}

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sparse_counts h =
  let counts = Summary.Histogram.counts h in
  let pairs = ref [] in
  for i = Array.length counts - 1 downto 0 do
    if counts.(i) > 0 then pairs := (i, counts.(i)) :: !pairs
  done;
  !pairs

let snapshot (t : t) =
  {
    counters = sorted_bindings t.counters ( ! );
    gauges = sorted_bindings t.gauges ( ! );
    histograms = sorted_bindings t.histograms sparse_counts;
  }

let snapshot_to_json s =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, pairs) ->
               ( k,
                 Json.List
                   (List.map
                      (fun (b, c) -> Json.List [ Json.Int b; Json.Int c ])
                      pairs) ))
             s.histograms) );
    ]

let ( let* ) = Result.bind

let decode_pair j =
  let* l = Json.get_list j in
  match l with
  | [ b; c ] ->
    let* b = Json.get_int b in
    let* c = Json.get_int c in
    Ok (b, c)
  | _ -> Error "histogram bucket: expected [bucket, count]"

let snapshot_of_json j =
  let obj_field key decode =
    Result.bind (Json.field key j) (Json.obj_of (fun _ -> decode))
  in
  let* counters = obj_field "counters" Json.get_int in
  let* gauges = obj_field "gauges" Json.get_float in
  let* histograms = obj_field "histograms" (Json.list_of decode_pair) in
  Ok { counters; gauges; histograms }

let render s =
  let buf = Buffer.create 512 in
  if s.counters <> [] then begin
    let tbl = Table.create ~aligns:[ Table.Left; Table.Right ]
        [ "counter"; "value" ] in
    List.iter (fun (k, v) -> Table.add_row tbl [ k; string_of_int v ]) s.counters;
    Buffer.add_string buf (Table.render tbl)
  end;
  if s.gauges <> [] then begin
    let tbl = Table.create ~aligns:[ Table.Left; Table.Right ]
        [ "gauge"; "value" ] in
    List.iter
      (fun (k, v) -> Table.add_row tbl [ k; Printf.sprintf "%.3f" v ])
      s.gauges;
    Buffer.add_string buf (Table.render tbl)
  end;
  List.iter
    (fun (name, pairs) ->
      Buffer.add_string buf (Printf.sprintf "histogram %s (log2 buckets):\n" name);
      List.iter
        (fun (b, c) ->
          let lo = if b = 0 then 0 else 1 lsl b in
          let hi = (1 lsl (b + 1)) - 1 in
          Buffer.add_string buf (Printf.sprintf "%12d..%-12d %d\n" lo hi c))
        pairs)
    s.histograms;
  Buffer.contents buf
