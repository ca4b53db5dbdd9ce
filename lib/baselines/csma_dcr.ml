module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Harness = Rtnet_mac.Harness
module Ddcr_params = Rtnet_core.Ddcr_params

type params = {
  static_m : int;
  static_leaves : int;
  static_indices : int array array;
}

let default ?indices_per_source inst =
  let p = Ddcr_params.default ?indices_per_source inst in
  {
    static_m = p.Ddcr_params.static_m;
    static_leaves = p.Ddcr_params.static_leaves;
    static_indices = p.Ddcr_params.static_indices;
  }

let of_ddcr p =
  {
    static_m = p.Ddcr_params.static_m;
    static_leaves = p.Ddcr_params.static_leaves;
    static_indices = p.Ddcr_params.static_indices;
  }

type phase = Free | Search of (int * int) list

let run_trace params inst trace ~horizon =
  let z = inst.Instance.num_sources in
  if Array.length params.static_indices <> z then
    invalid_arg "Csma_dcr.run_trace: one index set per source required";
  (* Shared deterministic state, replicated from channel feedback
     exactly as in CSMA/DDCR's STs — minus the time-tree layer. *)
  let phase = ref Free in
  let ranks = Array.make z 0 in
  let attempt_of src m =
    {
      Channel.att_source = src;
      att_tag = m.Message.uid;
      att_bits = m.Message.cls.Message.cls_bits;
      att_key = (Message.abs_deadline m, src);
    }
  in
  let split (lo, w) =
    let child = w / params.static_m in
    List.init params.static_m (fun i -> (lo + (i * child), child))
  in
  let decide h ~now:_ =
    match !phase with
    | Free ->
      List.filter_map
        (fun src -> Option.map (attempt_of src) (Harness.peek h src))
        (List.init z Fun.id)
    | Search [] -> assert false
    | Search ((lo, w) :: _) ->
      List.filter_map
        (fun src ->
          let own = params.static_indices.(src) in
          if
            ranks.(src) < Array.length own
            && own.(ranks.(src)) >= lo
            && own.(ranks.(src)) < lo + w
          then Option.map (attempt_of src) (Harness.peek h src)
          else None)
        (List.init z Fun.id)
  in
  let after _ ~now:_ ~resolution ~next_free =
    (match (!phase, resolution) with
    | _, Channel.Garbled _ -> () (* noise: retry the current step *)
    | Free, (Channel.Idle | Channel.Tx _) -> ()
    | Free, Channel.Clash { survivor; _ } ->
      Array.fill ranks 0 z 0;
      (match survivor with
      | Some (src, _, _) -> ranks.(src) <- 1
      | None -> ());
      phase := Search [ (0, params.static_leaves) ]
    | Search [], _ -> assert false
    | Search (((_, w) as top) :: rest), res -> (
      match res with
      | Channel.Garbled _ -> assert false (* handled above *)
      | Channel.Idle -> phase := if rest = [] then Free else Search rest
      | Channel.Tx { src; _ } ->
        ranks.(src) <- ranks.(src) + 1;
        phase := (if rest = [] then Free else Search rest)
      | Channel.Clash { survivor; _ } ->
        (match survivor with
        | Some (src, _, _) -> ranks.(src) <- ranks.(src) + 1
        | None -> ());
        if w > 1 then phase := Search (split top @ rest)
        else
          invalid_arg
            "Csma_dcr: collision on a static leaf (indices not disjoint)"));
    next_free
  in
  Harness.run ~protocol:"csma-dcr" ~phy:inst.Instance.phy ~num_sources:z
    ~horizon ~decide ~after trace

let run ?(seed = 1) params inst ~horizon =
  run_trace params inst (Instance.trace inst ~seed ~horizon) ~horizon
