type mark =
  | Free
  | Attempt
  | Tts
  | Sts
  | Tts_begin of { reft : int }
  | Tts_end of { sent : bool }
  | Sts_begin of { time_leaf : int }
  | Sts_end
  | Jump of { reft_from : int; reft_to : int }
  | Crash of { source : int }
  | Rejoin of { source : int }
  | Desync of { source : int }
  | Resync of { source : int }

type t = {
  enabled : bool;
  slot :
    now:int ->
    next_free:int ->
    resolution:Rtnet_channel.Channel.resolution ->
    unit;
  enqueue : now:int -> msg:Rtnet_workload.Message.t -> unit;
  complete : msg:Rtnet_workload.Message.t -> start:int -> finish:int -> unit;
  drop : msg:Rtnet_workload.Message.t -> unit;
  epoch : start:int -> finish:int -> unit;
  mark : time:int -> mark -> unit;
}

let nop_slot ~now:_ ~next_free:_ ~resolution:_ = ()
let nop_enqueue ~now:_ ~msg:_ = ()
let nop_complete ~msg:_ ~start:_ ~finish:_ = ()
let nop_drop ~msg:_ = ()
let nop_epoch ~start:_ ~finish:_ = ()
let nop_mark ~time:_ _ = ()

let null =
  {
    enabled = false;
    slot = nop_slot;
    enqueue = nop_enqueue;
    complete = nop_complete;
    drop = nop_drop;
    epoch = nop_epoch;
    mark = nop_mark;
  }

let tee a b =
  match (a.enabled, b.enabled) with
  | false, false -> null
  | true, false -> a
  | false, true -> b
  | true, true ->
    {
      enabled = true;
      slot =
        (fun ~now ~next_free ~resolution ->
          a.slot ~now ~next_free ~resolution;
          b.slot ~now ~next_free ~resolution);
      enqueue =
        (fun ~now ~msg ->
          a.enqueue ~now ~msg;
          b.enqueue ~now ~msg);
      complete =
        (fun ~msg ~start ~finish ->
          a.complete ~msg ~start ~finish;
          b.complete ~msg ~start ~finish);
      drop =
        (fun ~msg ->
          a.drop ~msg;
          b.drop ~msg);
      epoch =
        (fun ~start ~finish ->
          a.epoch ~start ~finish;
          b.epoch ~start ~finish);
      mark =
        (fun ~time m ->
          a.mark ~time m;
          b.mark ~time m);
    }

let create ?(slot = nop_slot) ?(enqueue = nop_enqueue) ?(complete = nop_complete)
    ?(drop = nop_drop) ?(epoch = nop_epoch) ?(mark = nop_mark) () =
  { enabled = true; slot; enqueue; complete; drop; epoch; mark }
