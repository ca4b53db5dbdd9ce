module Fault_plan = Rtnet_channel.Fault_plan
module Plain = Rtnet_chaos.Plain
module Subject = Rtnet_chaos.Subject
module Repro = Rtnet_chaos.Repro
module T = Transition

(* Counterexample export: a model trail is a schedule of deterministic
   fault atoms, so it maps directly onto a Fault_plan spec — scheduled
   garbles, scheduled misperceptions and crash windows, no random
   process at all.  Such a plan consumes zero PRNG draws, so the
   candidate is a pure function of (scenario, params, trace seed, plan)
   and `ddcr_chaos replay` re-executes the artifact byte-identically
   whatever fault seed it carries. *)

let plan_of_trail trail =
  let garbles = ref [] in
  let misperceives = ref [] in
  let open_crash : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let windows = ref [] in
  let last_time = ref 0 in
  List.iter
    (fun (time, action) ->
      last_time := max !last_time time;
      match action with
      | T.No_fault -> ()
      | T.Garble -> garbles := time :: !garbles
      | T.Misperceive s -> misperceives := (s, time) :: !misperceives
      | T.Crash s -> Hashtbl.replace open_crash s time
      | T.Revive s -> (
        match Hashtbl.find_opt open_crash s with
        | Some from_ ->
          Hashtbl.remove open_crash s;
          windows := (s, from_, time) :: !windows
        | None -> ()))
    trail;
  (* A crash still open when the trail ends is closed just past the
     last explored slot start: the model only relied on the source
     being down at slot starts <= last_time. *)
  Hashtbl.iter
    (fun s from_ -> windows := (s, from_, !last_time + 1) :: !windows)
    open_crash;
  Fault_plan.merge
    ([ Fault_plan.garble_at (List.rev !garbles) ]
    @ [ Fault_plan.misperceive_at (List.rev !misperceives) ]
    @ List.map
        (fun (s, from_, until) -> Fault_plan.crash ~source:s ~from_ ~until)
        !windows)

type source = {
  w_scenario : Rtnet_campaign.Spec.scenario;
  w_horizon_ms : int;
  w_params : Rtnet_core.Ddcr_params.t option;
      (* [Some] iff the check overrode the scenario-default parameters
         — pinned into the artifact so replay uses the same ones *)
  w_trace_seed : int;
}

let export src finding =
  let plan = plan_of_trail finding.Explore.f_trail in
  let env =
    {
      Plain.cf_scenario = src.w_scenario;
      cf_horizon_ms = src.w_horizon_ms;
      cf_params = src.w_params;
    }
  in
  let cd =
    { Plain.cd_plan = plan; cd_trace_seed = src.w_trace_seed; cd_fault_seed = 0 }
  in
  (* Freeze what the real simulator produces for this schedule — the
     artifact's expectations come from an actual run, never from the
     model's prediction, so replay equality is exact by construction. *)
  let report = Subject.run (module Plain) env cd in
  ( Repro.make ~env ~candidate:cd ~report
      ~note:
        (Printf.sprintf "model counterexample: %s"
           (T.describe_violation finding.Explore.f_violation)),
    report )
