(** The standard sink implementation: feeds every probe into a
    {!Registry}, a {!Trace_event} buffer and a per-class worst-case
    table, from which the headroom report derives.  It counts each
    [slot] probe as [engine/events] too, and builds the TTs/STs search
    spans and the θ jumps from DDCR's {!Sink.mark}s: a span runs from
    its begin mark to its end mark, and an STs span is [sent] if a
    frame completed inside it.

    Track layout of the exported trace:
    - pid 0 ["virtual time (bit-times)"] — tid 1 channel slots
      (idle/collision/garbled), tid 2 tree searches, tid 3 fault
      epochs, tid [10 + s] frames of source [s];
    - pid 1 ["campaign (wall clock)"] — one tid per worker, one span
      per cell.

    Virtual-time timestamps are bit-times emitted as microsecond
    ticks; wall-clock timestamps are microseconds since [wall0]. *)

type t

val create :
  ?bounds:Headroom.bound list ->
  ?wall0:float ->
  ?pid:int ->
  ?process_name:string ->
  unit ->
  t
(** [create ()] is a fresh recorder.  [bounds] enables per-class
    headroom gauges and trace [args.headroom] annotations (see
    {!Headroom}).  [wall0] anchors the wall-clock track; it defaults
    to the first worker event's start time.  [pid] (default 0) and
    [process_name] relabel the virtual-time process track — a
    multi-segment topology run gives each segment its own recorder
    with a distinct pid ([2·i], keeping [pid + 1] free for the
    wall-clock track) and merges the traces into one timeline with
    one Perfetto process per segment
    ({!Trace_event.merge_json}). *)

val sink : t -> Sink.t
(** The sink feeding [t]. *)

val worker_cell :
  t -> worker:int -> key:string -> t0:float -> t1:float -> ok:bool -> unit
(** [worker_cell t ~worker ~key ~t0 ~t1 ~ok] records that campaign
    worker [worker] ran cell [key] over wall-clock [\[t0, t1\]] (Unix
    epoch seconds); [ok] is false if the cell raised.  One span on the
    worker's wall-clock track, plus the [campaign/*] counters. *)

val registry : t -> Registry.t

val snapshot : t -> Registry.snapshot

val headroom_table : t -> Headroom.entry list
(** One entry per bound given at {!create}, in class-id order, with
    the observed worst access delay and completion count. *)

val trace_json : t -> Rtnet_util.Json.t
(** The Chrome trace-event JSON accumulated so far. *)
