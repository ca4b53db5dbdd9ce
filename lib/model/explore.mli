(** Breadth-first explicit-state exploration of {!Transition}'s
    bounded state space.

    States dedup on {!Transition.key}, so a configuration reached
    along two different fault schedules expands once; the trail kept
    per finding is the first (shortest, in BFS order).

    {b Soundness caveat} (DESIGN.md §12): a clean {!outcome} means no
    invariant violation is reachable within [c_depth] slots, [c_budget]
    fault actions and the one-fault-per-slot restriction — a bounded
    guarantee, not a proof over unbounded executions.  A truncated
    outcome ([o_truncated]) proves nothing. *)

type config = {
  c_depth : int;  (** max slots along any path *)
  c_budget : int;  (** fault-action budget per path *)
  c_max_states : int;  (** safety valve on distinct states *)
  c_max_violations : int;  (** stop after this many distinct violations *)
}

val default_config : config
(** depth 24, budget 2, 200k states, stop at the first violation. *)

type trail = (int * Transition.action) list
(** (slot start time, action applied in that slot), root first. *)

type finding = { f_violation : Transition.violation; f_trail : trail }

type outcome = {
  o_explored : int;  (** distinct states expanded *)
  o_transitions : int;  (** step calls that produced a successor *)
  o_depth_reached : int;
  o_truncated : bool;  (** [c_max_states] exhausted: NOT exhaustive *)
  o_findings : finding list;
}

val run : ?config:config -> Transition.sys -> budget:int -> outcome
(** [run sys ~budget] explores from {!Transition.init} with the given
    fault budget.  [budget] is the root node's allowance and should
    equal [config.c_budget] (the latter only documents the bound in
    reports). *)
