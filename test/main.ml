(* Aggregated alcotest runner: one suite per library module. *)

let () =
  Alcotest.run "rtnet"
    (Test_int_math.suite @ Test_prng.suite @ Test_table.suite
   @ Test_phy.suite
   @ Test_channel.suite @ Test_message.suite @ Test_arrival.suite
   @ Test_instance.suite @ Test_scenarios.suite @ Test_edf_queue.suite
   @ Test_np_edf.suite @ Test_summary.suite @ Test_run.suite @ Test_xi.suite
   @ Test_multi_tree.suite @ Test_tree_search.suite @ Test_ddcr_params.suite
   @ Test_ddcr.suite @ Test_feasibility.suite @ Test_dimensioning.suite
   @ Test_baselines.suite @ Test_ddcr_trace.suite @ Test_faults.suite @ Test_multi_bus.suite @ Test_cos.suite @ Test_np_edf_fc.suite @ Test_harness.suite @ Test_conformance.suite @ Test_xi_arb.suite @ Test_analysis.suite @ Test_json.suite @ Test_campaign.suite @ Test_fault_plan.suite
   @ Test_telemetry.suite @ Test_chaos.suite @ Test_model.suite
   @ Test_topology.suite @ Test_obs.suite @ Test_admit.suite
   @ Test_fuzz.suite @ Test_cli.suite)
