(* Test entry point: aggregates every module's suites. *)

let () =
  Alcotest.run "slo"
    (Test_util.suites @ Test_obs.suites @ Test_graph.suites @ Test_ir.suites
   @ Test_layout.suites @ Test_profile.suites @ Test_affinity.suites
   @ Test_sim.suites @ Test_simkern.suites @ Test_modelcheck.suites
   @ Test_concurrency.suites
   @ Test_core.suites
   @ Test_globals.suites @ Test_persist.suites @ Test_workload.suites
   @ Test_exec.suites @ Test_search.suites @ Test_hier.suites @ Test_flg.suites
   @ Test_engine.suites
   @ Test_codelayout.suites
   @ Test_serve.suites @ Test_fuzz.suites)
