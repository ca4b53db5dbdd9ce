(** Long-running soak: repeated chaos searches under one wall-clock
    budget, accumulating de-duplicated findings as replay artifacts.

    Each round re-runs the configured search with a fresh derived
    seed (round [r] uses [Prng.derive seed r]), so rounds explore
    disjoint candidate populations.  Findings are de-duplicated by
    trace fingerprint across rounds; each new one is frozen with
    {!Repro.save} into the output directory (when given).  The soak
    inherits the search's graceful degradation: an exhausted wall
    budget ends the current round early, reports what was gathered
    and stops — it never crashes. *)

type config = {
  so_search : (Plain.env, Plain.space) Search.config;
      (** per-round search configuration (single-bus subject) *)
  so_rounds : int;  (** maximum rounds *)
  so_wall_budget_s : float option;
      (** total budget across rounds; overrides the per-round budget
          with the remaining time each round *)
  so_out_dir : string option;  (** where repro artifacts are written *)
}

type result = {
  so_rounds_run : int;
  so_examined : int;  (** candidates examined across all rounds *)
  so_findings : int;  (** distinct findings (by fingerprint) *)
  so_gave_up : int;  (** candidates that exhausted their retries *)
  so_repro_paths : string list;  (** artifacts written, oldest first *)
  so_exhausted : bool;  (** stopped by the wall budget *)
}

val run : ?log:(string -> unit) -> config -> result
