module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Harness = Rtnet_mac.Harness
module Prng = Rtnet_util.Prng

type params = { max_attempts : int; max_backoff_exp : int }

let ethernet = { max_attempts = 16; max_backoff_exp = 10 }

let run_trace ?(params = ethernet) ?plan ~seed inst trace ~horizon =
  let z = inst.Instance.num_sources in
  let rng = Prng.create seed in
  (* Per-station MAC state: consecutive collisions of the head frame,
     and remaining backoff slots (counted down on idle slots only). *)
  let attempts = Array.make z 0 in
  let backoff = Array.make z 0 in
  let reset src =
    attempts.(src) <- 0;
    backoff.(src) <- 0
  in
  let decide h ~now:_ =
    List.filter_map
      (fun src ->
        match Harness.peek h src with
        | Some m when backoff.(src) = 0 ->
          Some
            {
              Channel.att_source = src;
              att_tag = m.Message.uid;
              att_bits = m.Message.cls.Message.cls_bits;
              att_key = (Message.abs_deadline m, src);
            }
        | Some _ | None -> None)
      (List.init z Fun.id)
  in
  let after h ~now:_ ~resolution ~next_free =
    (match resolution with
    | Channel.Garbled _ ->
      (* A CRC error is not a collision: the station retransmits
         without touching its backoff state. *)
      ()
    | Channel.Idle ->
      Array.iteri (fun src b -> if b > 0 then backoff.(src) <- b - 1) backoff
    | Channel.Tx { src; _ } ->
      (* The harness already recorded the completion and popped the
         frame; the station starts fresh on its next one. *)
      reset src
    | Channel.Clash { contenders; survivor } ->
      (match survivor with
      | Some (src, _, _) -> reset src
      | None -> ());
      List.iter
        (fun (src, _) ->
          match survivor with
          | Some (s, _, _) when s = src -> ()
          | Some _ | None ->
            attempts.(src) <- attempts.(src) + 1;
            if attempts.(src) >= params.max_attempts then begin
              (match Harness.pop h src with
              | Some m -> Harness.drop h m
              | None -> assert false);
              reset src
            end
            else begin
              let exp = min attempts.(src) params.max_backoff_exp in
              backoff.(src) <- Prng.int rng (1 lsl exp)
            end)
        contenders);
    next_free
  in
  Harness.run ~protocol:"csma-cd-beb" ?plan ~phy:inst.Instance.phy
    ~num_sources:z ~horizon ~decide ~after trace

let run ?params ?plan ~seed inst ~horizon =
  run_trace ?params ?plan ~seed inst (Instance.trace inst ~seed ~horizon) ~horizon
