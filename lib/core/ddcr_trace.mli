(** Structured protocol event traces.

    A DDCR run's probe stream ({!Rtnet_telemetry.Sink.t}), read back as
    one event per channel slot plus phase transitions.  Traces serve
    three purposes: debugging a configuration (print them), validating
    the slot accounting (e.g. the test suite checks that a trace's
    totals reconcile exactly with the channel statistics and the
    completion list), and measuring where the protocol spends the
    medium — free slots, open attempts, time-tree probes, static-tree
    probes, frames. *)

type via =
  | Free_csma  (** carried during free CSMA-CD operation *)
  | Open_attempt  (** carried in the post-TTs open attempt slot *)
  | Time_tree  (** isolated at time-tree level *)
  | Static_tree  (** isolated during a static tree search *)
  | Bursting  (** appended to an acquisition by packet bursting *)

type event =
  | Idle_slot of { time : int; phase : string }
      (** an empty contention slot; [phase] is the automaton phase it
          was spent in ("free", "attempt", "tts", "sts") *)
  | Collision_slot of { time : int; phase : string; contenders : int }
      (** a destroyed slot ([contenders >= 2]) *)
  | Garbled_slot of { time : int; on_wire : int }
      (** a lone frame destroyed by channel noise (fault injection) *)
  | Frame_sent of {
      time : int;  (** first bit on the wire *)
      finish : int;  (** last bit *)
      source : int;
      uid : int;
      via : via;
    }
  | Tts_begin of { time : int; reft : int }
      (** a time tree search started (reft as adopted) *)
  | Tts_end of { time : int; sent : bool }
      (** the time tree search completed; [sent] is the [out] flag *)
  | Sts_begin of { time : int; time_leaf : int }
      (** a static tree search started on a colliding deadline class *)
  | Sts_end of { time : int }
      (** the static tree search completed *)
  | Crash of { time : int; source : int }
      (** a station went down (fault-plan crash window opened) *)
  | Rejoin of { time : int; source : int }
      (** a crashed station came back up; it listens only until it
          resynchronizes *)
  | Desync of { time : int; source : int }
      (** divergence detection: the station's replica digest disagreed
          with the plurality; it goes listen-only *)
  | Resync of { time : int; source : int }
      (** the station re-acquired the shared replica state at a
          tree-epoch boundary and re-enters contention *)

(** Per-trace slot accounting. *)
type summary = {
  idle_by_phase : (string * int) list;  (** empty slots per phase *)
  collision_slots : int;  (** destroyed slots *)
  garbled_slots : int;  (** noise-destroyed frames *)
  frames : int;  (** frames carried *)
  frames_by_via : (via * int) list;  (** carried frames per path *)
  tts_count : int;  (** time tree searches run *)
  tts_productive : int;  (** of which transmitted something *)
  sts_count : int;  (** static tree searches run *)
  crashes : int;  (** stations going down *)
  rejoins : int;  (** stations coming back up *)
  desyncs : int;  (** divergence detections *)
  resyncs : int;  (** completed recoveries *)
}

val collector : unit -> Rtnet_telemetry.Sink.t * (unit -> event list)
(** [collector ()] is [(sink, finish)]: pass [sink] to a DDCR run
    ({!Ddcr.run_trace}), alone or {!Rtnet_telemetry.Sink.tee}d with
    other sinks; [finish ()] returns the events in emission order.
    The events are rebuilt from the run's probes: a slot's from its
    [slot] resolution, its frame's [complete] and DDCR's phase mark
    (a frame completing after the mark is a burst), every other event
    from its own mark. *)

val summarize : event list -> summary
(** [summarize events] tallies the trace. *)

val pp_via : Format.formatter -> via -> unit
(** [pp_via fmt v] prints the path name. *)

val pp_event : Format.formatter -> event -> unit
(** [pp_event fmt e] prints one event on one line. *)

val pp_summary : Format.formatter -> summary -> unit
(** [pp_summary fmt s] prints the accounting block. *)
