(** Line-oriented serialization of {!Rtnet_core.Ddcr_trace} events.

    One event per line, [key=value] fields, so trace fixtures can be
    dumped from a run, stored, hand-mutated and re-checked by
    [ddcr_lint --check-trace].  The format:

    {v
idle t=0 phase=free
collision t=4096 phase=tts contenders=3
garbled t=8192 on_wire=4256
frame t=12448 finish=16704 source=2 uid=17 via=static dm=20000000
tts_begin t=4096 reft=0
tts_end t=16704 sent=true
sts_begin t=8192 leaf=3
sts_end t=16704
    v}

    [via] is one of [free], [attempt], [time], [static], [burst].  The
    optional [dm] field on [frame] lines records the message's absolute
    deadline so the timeliness check needs no separate workload; blank
    lines and [#] comments are ignored. *)

val output :
  ?deadline_of:(int -> int option) ->
  out_channel ->
  Rtnet_core.Ddcr_trace.event list ->
  unit
(** [output oc events] writes one line per event; [deadline_of uid]
    supplies the [dm] field of frame lines (omitted when [None] or not
    given). *)

val parse :
  string -> (Rtnet_core.Ddcr_trace.event list * (int * int) list, string) result
(** [parse text] reads a dump back: the events in file order plus the
    [(uid, dm)] pairs harvested from [frame] lines — ready to feed to
    {!Trace_check.check}.  Returns [Error] with a line-numbered message
    on the first malformed line. *)

val parse_file :
  string -> (Rtnet_core.Ddcr_trace.event list * (int * int) list, string) result
(** [parse_file path] is {!parse} on the contents of [path]; a file
    that cannot be read is an [Error] too ({!Rtnet_util.Io.load}). *)
