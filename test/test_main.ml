(* GuNFu-OCaml test runner: all suites. Run `dune runtest`; slow
   performance-relationship tests are included by default. *)

let () =
  Alcotest.run "gunfu"
    [
      ("rng", Test_rng.suite);
      ("cache", Test_cache.suite);
      ("hierarchy", Test_hierarchy.suite);
      ("layout", Test_layout.suite);
      ("netcore", Test_netcore.suite);
      ("traffic", Test_traffic.suite);
      ("structures", Test_structures.suite);
      ("spec", Test_spec.suite);
      ("nfc", Test_nfc.suite);
      ("model", Test_model.suite);
      ("compiler", Test_compiler.suite);
      ("runtime", Test_runtime.suite);
      ("nfs", Test_nfs.suite);
      ("platform", Test_platform.suite);
      ("exec", Test_exec.suite);
      ("extensions", Test_extensions.suite);
      ("dynamics", Test_dynamics.suite);
      ("spec-files", Test_spec_files.suite);
      ("latency", Test_latency.suite);
      ("scaleout", Test_scaleout.suite);
      ("scr", Test_scr.suite);
      ("calibration", Test_calibration.suite);
      ("pfcp", Test_pfcp.suite);
      ("nas", Test_nas.suite);
      ("exec-ctx", Test_exec_ctx.suite);
      ("lint", Test_lint.suite);
      ("oracle", Test_oracle.suite);
      ("invariants", Test_invariants.suite);
      ("fault", Test_fault.suite);
      ("telemetry", Test_telemetry.suite);
      ("specialize", Test_specialize.suite);
      ("recovery", Test_recovery.suite);
      ("storm", Test_storm.suite);
      ("axes", Test_axes.suite);
      ("verifyeq", Test_verifyeq.suite);
      ("adaptive", Test_adaptive.suite);
      ("baseline", Test_baseline.suite);
      ("golden", Test_golden.suite);
      ("alloc", Test_alloc.suite);
    ]
