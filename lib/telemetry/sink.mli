(** Probe sink: the one typed stream a simulated run emits.

    {!Rtnet_mac.Harness} and [Rtnet_core.Ddcr] take a [Sink.t] and
    call its fields at well-defined probe points: the harness emits the
    five channel and queue probes, and DDCR adds what only it knows
    through {!t.mark}.  The default is {!null}, whose [enabled] flag
    is [false]: every emit site guards with [if sink.enabled then ...],
    so a disabled sink costs one boolean load per probe point — no
    closure call, no allocation.

    The consumers read this one stream: [Rtnet_core.Ddcr_trace]'s
    collector rebuilds the protocol trace from it, {!Recorder} the
    registry and the Perfetto timeline, and [Rtnet_obs.Flight] the
    black-box ring.

    The sink deliberately depends only on the vocabulary layers
    (channel, workload): it never sees protocol internals, so [mac]
    and [core] can both emit into it without a dependency cycle. *)

(** What DDCR reports of its own state through {!t.mark}, each at the
    mark's [time]. *)
type mark =
  | Free
  | Attempt
  | Tts
  | Sts
      (** The phase the slot starting at [time] was spent in.  One per
          slot, after the slot's [slot] probe and its frame's
          [complete], before any burst frame's [complete]; constant,
          so emitting it allocates nothing. *)
  | Tts_begin of { reft : int }  (** a time tree search starts *)
  | Tts_end of { sent : bool }  (** it ends; [sent] is its [out] flag *)
  | Sts_begin of { time_leaf : int }
      (** a static tree search starts on the colliding time leaf *)
  | Sts_end  (** it ends *)
  | Jump of { reft_from : int; reft_to : int }
      (** an unproductive time tree search moved the reference time
          without consuming slots (compressed time, Section 4.3) *)
  | Crash of { source : int }  (** the station goes down *)
  | Rejoin of { source : int }  (** it comes back up, listen-only *)
  | Desync of { source : int }
      (** its replica disagreed with the plurality: listen-only *)
  | Resync of { source : int }
      (** it re-acquired the shared state and contends again *)

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
  epoch : start:int -> finish:int -> unit;
      (** A fault epoch (injected perturbation window) covered
          [\[start, finish)]. *)
  mark : time:int -> mark -> unit;
      (** A DDCR fact at virtual time [time] (see {!mark}). *)
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
  ?epoch:(start:int -> finish:int -> unit) ->
  ?mark:(time:int -> mark -> unit) ->
  unit ->
  t
(** [create ()] is an enabled sink whose unspecified callbacks are
    no-ops. *)
