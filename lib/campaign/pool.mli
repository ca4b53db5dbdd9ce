(** Multi-process worker pool ([Unix.fork] + pipes).

    The coordinator keeps up to [jobs] long-lived forked workers and
    feeds each one task position at a time: an 8-byte write on that
    worker's command pipe.  The worker runs the task and answers with
    a length-prefixed [Marshal] frame on its reply pipe; the
    coordinator multiplexes the reply pipes with [Unix.select] and
    hands the next ready position to whichever worker answered.  The
    task array reaches the workers by [fork], never over a pipe.

    Workers persist because a fork plus its reap (~0.15 ms on a
    2-vCPU VM) is as long as a typical campaign cell ([campaign_v1]:
    0.02–1.5 ms, median 0.14 ms): forking once per task took
    [campaign_v1] and [fault_sweep] at [-j 2] from ~16 to ~34 ms of
    wall clock.  One fork now serves many tasks, yet the
    coordinator still knows which position each worker is running, so
    a fault costs only that position: a worker that overruns the
    watchdog or dies is reaped, its slot is forked again at the next
    dispatch, and only its in-flight position is retried (with
    backoff) or, once the retry budget is spent, reported as
    {!Gave_up}.  The pool never raises on a lost task.

    {b Isolation caveat.}  Tasks that run in one worker share its
    heap: global state a task mutates is seen by the later tasks of
    the same worker (and by none of the other workers).  Task
    functions must therefore depend only on their argument, as the
    campaign cells and chaos candidates do; then every [jobs] yields
    the same result set.  Results must be marshal-safe plain data (no
    closures). *)

type timing = {
  worker : int;  (** the worker's slot, in [\[0, jobs)] *)
  t0 : float;  (** wall-clock start of the task, Unix epoch seconds *)
  t1 : float;  (** wall-clock end of the task *)
}
(** Worker-side measurement around one task — the telemetry probe the
    campaign profiler renders as a wall-clock timeline, one track per
    worker slot.  Measured in the worker around the task function
    alone, so pipe and coordinator latency never inflate it. *)

val default_jobs : unit -> int
(** [default_jobs ()] is the machine's recommended parallelism
    ([Domain.recommended_domain_count]). *)

type give_up_reason =
  | Timed_out of float  (** killed by the watchdog after this many seconds *)
  | Worker_lost of string  (** worker died without delivering a frame *)

type 'b sevent =
  | Completed of int * timing * 'b
      (** task position, timing, worker's return value *)
  | Task_error of int * timing * string
      (** the task function itself raised — deterministic, so it is
          reported immediately and {e not} retried; the worker carries
          on with its next task *)
  | Gave_up of { position : int; attempts : int; reason : give_up_reason }
      (** every attempt timed out or lost its worker *)

val reason_text : give_up_reason -> string
(** [reason_text r] is a one-line human-readable rendering. *)

val supervise :
  jobs:int ->
  ?watchdog_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?on_retry:(position:int -> attempt:int -> reason:string -> unit) ->
  ?should_stop:(unit -> bool) ->
  on_event:('b sevent -> unit) ->
  ('a -> 'b) ->
  'a array ->
  int
(** [supervise ~jobs ~on_event f tasks] runs [f] on every task on at
    most [min jobs (Array.length tasks)] workers and returns the
    number of events emitted, at most one per task.  [on_event] runs
    in the coordinator in completion order.  Positions are handed out
    in order; a retry goes out once its backoff has passed and no
    fresh position is left.  A worker gets its next position before
    its answer is reported, so it computes while [on_event] runs.

    [watchdog_s] (default: none) kills any attempt still undelivered
    after that many seconds.  A killed or lost attempt is re-enqueued
    after [backoff_s * attempt] seconds (default [0.05]) up to
    [retries] times (default [1]); [on_retry] observes each
    re-enqueue.  When the budget is spent the task yields one
    {!Gave_up} event.

    [should_stop] (default: never) is polled before every dispatch;
    once true no further task is {e dispatched} — in-flight attempts
    drain normally and tasks never dispatched emit nothing, so a
    caller on an exhausted budget gets partial results, not an
    exception.  A [should_stop] that counts events sees each answer
    only after its worker's next dispatch, so up to [jobs] more
    events may follow the one that makes it true.

    Every worker is killed and reaped before [supervise] returns or
    re-raises an exception from a callback.  SIGPIPE is ignored for
    the duration of the call.
    @raise Invalid_argument if [jobs < 1]. *)
