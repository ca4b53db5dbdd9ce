(* ddcr_fc: evaluate the feasibility conditions of Section 4.3 for a
   scenario, or search for a feasible protocol configuration.

   Examples:
     ddcr_fc -s videoconference -n 8
     ddcr_fc -s uniform -n 8 --load 0.5 --dimension *)

module Instance = Rtnet_workload.Instance
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Dimensioning = Rtnet_core.Dimensioning
module Np_edf_fc = Rtnet_edf.Np_edf_fc

open Cmdliner

let dimension =
  Arg.(
    value & flag
    & info [ "dimension" ]
        ~doc:"Search the candidate grid for a provably feasible \
              configuration instead of checking the default one.")

let main scenario params dimension_flag =
  Result.map
    (fun inst ->
      Format.printf "%a@.@." Instance.pp inst;
      let oracle = Np_edf_fc.check inst in
      Format.printf
        "centralized NP-EDF oracle: feasible %b (margin %.3f at t = %d)@.@."
        oracle.Np_edf_fc.np_feasible oracle.Np_edf_fc.np_margin
        oracle.Np_edf_fc.critical_t;
      let p =
        if dimension_flag then begin
          let verdict = Dimensioning.dimension inst in
          Format.printf "%a@.@." Dimensioning.pp_verdict verdict;
          match verdict with
          | Dimensioning.Feasible p | Dimensioning.Infeasible (p, _) -> p
        end
        else begin
          let p = params inst in
          Format.printf "parameters: %a@.@." Ddcr_params.pp p;
          p
        end
      in
      Format.printf "%a@." Feasibility.pp_report (Feasibility.check p inst);
      0)
    (Rtnet_campaign.Spec.instance_result scenario)

let cmd =
  Cli_common.cmd
    (Cmd.info "ddcr_fc"
       ~doc:"Feasibility conditions and dimensioning for CSMA/DDCR")
    Term.(const main $ Cli_common.scenario $ Cli_common.params $ dimension)
