(** Campaign execution: lint gate → work-list → worker pool →
    checkpoint → report.

    {!run} validates the spec, runs the fail-fast configuration lint
    ({!Grid.lint}), enumerates the work-list, subtracts cells already
    recorded in the checkpoint journal (when resuming), executes the
    remainder on a {!Pool} of worker processes — appending each result
    to the journal as it arrives — and, once every cell is in, writes
    the versioned report and removes the journal.

    Because each cell's seeds derive from its coordinates alone, the
    report content (minus timing fields) is identical for any [jobs]
    and for any interrupt/resume split. *)

type options = {
  jobs : int;  (** worker processes (clamped to the cell count) *)
  out : string;  (** report path, e.g. [BENCH_smoke.json] *)
  journal : string option;
      (** checkpoint path; default [out ^ ".ckpt"] *)
  resume : bool;
      (** reuse an existing journal instead of starting fresh *)
  max_cells : int option;
      (** stop after this many fresh results, leaving the journal in
          place — the interrupted-campaign test hook *)
  progress : (done_:int -> total:int -> key:string -> elapsed_s:float -> unit)
             option;  (** per-cell completion callback *)
  telemetry : bool;
      (** have each DDCR cell record a telemetry snapshot, embedded in
          the report behind the optional ["telemetry"] key (absent
          when off, so report fingerprints are unchanged) *)
  on_cell :
    worker:int -> key:string -> t0:float -> t1:float -> ok:bool -> unit;
      (** called in the coordinator once per pool event: worker
          [worker] ran cell [key] over wall-clock [\[t0, t1\]] (Unix
          epoch seconds), [ok] false if it raised — the wall-clock
          worker timeline *)
}

val default_options : out:string -> options
(** [jobs = Pool.default_jobs ()], journal derived from [out], no
    resume, no cap, no progress callback, telemetry off, an [on_cell]
    that does nothing. *)

val order_failures : (int * string) list -> string list
(** [order_failures l] sorts [(submission position, message)] pairs by
    position and returns the messages — worker failures arrive in
    frame order (an arbitrary interleaving), but are reported in
    submission order. *)

type error =
  | Invalid_spec of string
  | Lint_rejected of Rtnet_analysis.Diagnostic.t list
      (** every diagnostic from the gate (the rejection is triggered by
          the [Error]-severity ones) *)
  | Checkpoint_error of string
  | Worker_failure of string

val pp_error : Format.formatter -> error -> unit

type outcome =
  | Complete of Report.t
      (** report written to [options.out], journal removed *)
  | Interrupted of { completed : int; total : int }
      (** [max_cells] stopped the run; journal left for resume *)

val run : options -> Spec.t -> (outcome, error) result
