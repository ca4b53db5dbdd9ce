module Phy = Rtnet_channel.Phy

module Prng = Rtnet_util.Prng

type t = {
  name : string;
  phy : Phy.t;
  num_sources : int;
  classes : (Message.cls * Arrival.law) array;
}

(* Strictly ascending ids: no duplicate, and already in id order. *)
let rec ascending = function
  | (a, _) :: ((b, _) :: _ as rest) ->
    a.Message.cls_id < b.Message.cls_id && ascending rest
  | [ _ ] | [] -> true

let duplicate_ids classes =
  let ids = List.map (fun (c, _) -> c.Message.cls_id) classes in
  List.length (List.sort_uniq compare ids) <> List.length ids

let create ~name ~phy ~num_sources classes =
  if classes = [] then Error "instance has no message class"
  else if num_sources < 1 then Error "instance needs at least one source"
  else begin
    (* Callers that build classes in id order (the admission engine's
       self-check does, every few decisions) skip both sorts. *)
    let in_order = ascending classes in
    if (not in_order) && duplicate_ids classes then Error "duplicate class ids"
    else begin
      let check (c, _) =
        match Message.cls_validate c with
        | Error e -> Some (Printf.sprintf "class %d: %s" c.Message.cls_id e)
        | Ok () ->
          if c.Message.cls_source >= num_sources then
            Some
              (Printf.sprintf "class %d mapped to unknown source %d"
                 c.Message.cls_id c.Message.cls_source)
          else None
      in
      match List.filter_map check classes with
      | e :: _ -> Error e
      | [] ->
        let arr = Array.of_list classes in
        if not in_order then
          Array.sort
            (fun (c1, _) (c2, _) -> compare c1.Message.cls_id c2.Message.cls_id)
            arr;
        Ok { name; phy; num_sources; classes = arr }
    end
  end

let create_exn ~name ~phy ~num_sources classes =
  match create ~name ~phy ~num_sources classes with
  | Ok t -> t
  | Error e -> invalid_arg ("Instance.create_exn: " ^ e)

let classes inst = Array.to_list (Array.map fst inst.classes)

let classes_of_source inst i =
  List.filter (fun c -> c.Message.cls_source = i) (classes inst)

let trace inst ~seed ~horizon =
  let rng = Prng.create seed in
  Arrival.to_trace rng (Array.to_list inst.classes) ~horizon

let peak_utilization inst =
  Array.fold_left
    (fun acc (c, _) ->
      acc
      +. float_of_int (c.Message.cls_burst * Phy.tx_bits inst.phy c.Message.cls_bits)
         /. float_of_int c.Message.cls_window)
    0. inst.classes

let with_law inst law =
  { inst with classes = Array.map (fun (c, _) -> (c, law)) inst.classes }

let scale_int v k = max 1 (int_of_float (Float.round (float_of_int v *. k)))

let scale_deadlines inst k =
  {
    inst with
    classes =
      Array.map
        (fun (c, law) ->
          ({ c with Message.cls_deadline = scale_int c.Message.cls_deadline k }, law))
        inst.classes;
  }

let scale_windows inst k =
  {
    inst with
    classes =
      Array.map
        (fun (c, law) ->
          ({ c with Message.cls_window = scale_int c.Message.cls_window k }, law))
        inst.classes;
  }

let pp fmt inst =
  Format.fprintf fmt "@[<v>instance %s: %d sources on %a, peak load %.3f@,"
    inst.name inst.num_sources Phy.pp inst.phy (peak_utilization inst);
  Array.iter
    (fun (c, law) ->
      Format.fprintf fmt "  %a under %a@," Message.pp_cls c Arrival.pp_law law)
    inst.classes;
  Format.fprintf fmt "@]"
