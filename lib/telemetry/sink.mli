(** Probe sink: the typed callback surface the whole stack emits into.

    Instrumented layers ({!Rtnet_mac.Harness}, [Rtnet_core.Ddcr],
    [Rtnet_campaign.Pool]) take a [Sink.t] and call
    its fields at well-defined probe points.  The default is {!null},
    whose [enabled] flag is [false]: every emit site guards with
    [if sink.enabled then ...], so a disabled sink costs one boolean
    load per probe point — no closure call, no allocation.

    The sink deliberately depends only on the vocabulary layers
    (channel, workload): it never sees protocol internals, so [mac]
    and [core] can both emit into it without a dependency cycle. *)

type tree = Time_tree | Static_tree
(** Which tree-search phase a {!t.search} span describes: the dynamic
    time tree (TTs) or the static source tree (STs). *)

type t = {
  enabled : bool;
      (** [false] for {!null}; emit sites skip every callback. *)
  slot :
    now:int ->
    next_free:int ->
    resolution:Rtnet_channel.Channel.resolution ->
    unit;
      (** One channel slot resolved at virtual time [now]; the channel
          is busy until [next_free]. *)
  enqueue : now:int -> msg:Rtnet_workload.Message.t -> unit;
      (** [msg] entered a source's pending queue at slot time [now]. *)
  complete : msg:Rtnet_workload.Message.t -> start:int -> finish:int -> unit;
      (** [msg]'s frame occupied the wire over [\[start, finish)]. *)
  drop : msg:Rtnet_workload.Message.t -> unit;
      (** [msg] was dropped (deadline passed before service). *)
  search : tree:tree -> start:int -> finish:int -> sent:bool -> unit;
      (** A tree search ran over [\[start, finish)] and did ([sent]) or
          did not resolve into a transmission. *)
  jump : now:int -> reft_from:int -> reft_to:int -> unit;
      (** Compressed-time jump: the reference time advanced from
          [reft_from] to [reft_to] at [now] without consuming slots. *)
  epoch : start:int -> finish:int -> unit;
      (** A fault epoch (injected perturbation window) covered
          [\[start, finish)]. *)
  engine_event : time:int -> unit;
      (** The simulation loop started one slot at [time] (fired by the
          MAC harness once per slot, before the slot's other probes). *)
  worker_cell :
    worker:int -> key:string -> t0:float -> t1:float -> ok:bool -> unit;
      (** Campaign worker [worker] ran cell [key] over wall-clock
          [\[t0, t1\]] (Unix epoch seconds); [ok] is false if the cell
          raised. *)
  service : component:string -> degraded:bool -> backlog:int -> unit;
      (** Long-running service [component] crossed a load watermark:
          [degraded = true] when backpressure engages (Degraded),
          [false] when it releases (Restored); [backlog] is the queue
          depth at the transition. *)
}

val null : t
(** The no-op sink; [enabled = false]. *)

val tee : t -> t -> t
(** [tee a b] fans every probe out to both sinks, in order [a] then
    [b].  Disabled operands are elided: [tee a null] is [a], and
    [tee null null] is {!null}, so the one-boolean-load-when-off
    discipline is preserved when both halves are off. *)

val create :
  ?slot:
    (now:int ->
    next_free:int ->
    resolution:Rtnet_channel.Channel.resolution ->
    unit) ->
  ?enqueue:(now:int -> msg:Rtnet_workload.Message.t -> unit) ->
  ?complete:(msg:Rtnet_workload.Message.t -> start:int -> finish:int -> unit) ->
  ?drop:(msg:Rtnet_workload.Message.t -> unit) ->
  ?search:(tree:tree -> start:int -> finish:int -> sent:bool -> unit) ->
  ?jump:(now:int -> reft_from:int -> reft_to:int -> unit) ->
  ?epoch:(start:int -> finish:int -> unit) ->
  ?engine_event:(time:int -> unit) ->
  ?worker_cell:
    (worker:int -> key:string -> t0:float -> t1:float -> ok:bool -> unit) ->
  ?service:(component:string -> degraded:bool -> backlog:int -> unit) ->
  unit ->
  t
(** [create ()] is an enabled sink whose unspecified callbacks are
    no-ops. *)
