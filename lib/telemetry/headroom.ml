module Json = Rtnet_util.Json
module Table = Rtnet_util.Table

type bound = {
  b_cls : int;
  b_name : string;
  b_deadline : int;
  b_bound : float;
  b_bound_impl : float;
}

type entry = { e_bound : bound; e_observed : int; e_count : int }

let headroom e = e.e_bound.b_bound_impl -. float_of_int e.e_observed

let render entries =
  let tbl =
    Table.create
      ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right;
                Table.Right; Table.Right ]
      [ "cls"; "name"; "deadline"; "done"; "worst"; "B_impl"; "headroom" ]
  in
  List.iter
    (fun e ->
      Table.add_row tbl
        [
          string_of_int e.e_bound.b_cls;
          e.e_bound.b_name;
          string_of_int e.e_bound.b_deadline;
          string_of_int e.e_count;
          string_of_int e.e_observed;
          Printf.sprintf "%.0f" e.e_bound.b_bound_impl;
          Printf.sprintf "%.0f" (headroom e);
        ])
    entries;
  Table.render tbl

let entry_to_json e =
  Json.Obj
    [
      ("cls", Json.Int e.e_bound.b_cls);
      ("name", Json.String e.e_bound.b_name);
      ("deadline", Json.Int e.e_bound.b_deadline);
      ("bound", Json.Float e.e_bound.b_bound);
      ("bound_impl", Json.Float e.e_bound.b_bound_impl);
      ("observed", Json.Int e.e_observed);
      ("count", Json.Int e.e_count);
    ]

let to_json entries = Json.List (List.map entry_to_json entries)

let ( let* ) = Result.bind

let entry_of_json j =
  let* cls = Result.bind (Json.field "cls" j) Json.get_int in
  let* name = Result.bind (Json.field "name" j) Json.get_string in
  let* deadline = Result.bind (Json.field "deadline" j) Json.get_int in
  let* bound = Result.bind (Json.field "bound" j) Json.get_float in
  let* bound_impl = Result.bind (Json.field "bound_impl" j) Json.get_float in
  let* observed = Result.bind (Json.field "observed" j) Json.get_int in
  let* count = Result.bind (Json.field "count" j) Json.get_int in
  Ok
    {
      e_bound =
        {
          b_cls = cls;
          b_name = name;
          b_deadline = deadline;
          b_bound = bound;
          b_bound_impl = bound_impl;
        };
      e_observed = observed;
      e_count = count;
    }

let of_json = Json.list_of entry_of_json
