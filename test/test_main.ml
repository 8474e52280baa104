let () =
  Alcotest.run "nonstop_sql"
    [
      ("codec", Test_codec.suite);
      ("sim", Test_sim.suite);
      ("row", Test_row.suite);
      ("expr", Test_expr.suite);
      ("cache", Test_cache.suite);
      ("lock", Test_lock.suite);
      ("audit", Test_audit.suite);
      ("store", Test_store.suite);
      ("dp", Test_dp.suite);
      ("fs", Test_fs.suite);
      ("sql", Test_sql.suite);
      ("enscribe", Test_enscribe.suite);
      ("sort", Test_sort.suite);
      ("workload", Test_workload.suite);
      ("extensions", Test_extensions.suite);
      ("sql_edge", Test_sql_edge.suite);
      ("protocol", Test_protocol.suite);
      ("availability", Test_availability.suite);
      ("dtx", Test_dtx.suite);
      ("model", Test_model.suite);
      ("relative", Test_relative.suite);
      ("fanout", Test_fanout.suite);
      ("batch", Test_batch.suite);
      ("trace", Test_trace.suite);
      ("monitor", Test_monitor.suite);
      ("chaos", Test_chaos.suite);
      ("lint", Test_lint.suite);
      ("diskq", Test_diskq.suite);
      ("redrive", Test_redrive.suite);
      ("groups", Test_groups.suite);
      ("conformance", Test_conformance.suite);
      ("backout", Test_backout.suite);
    ]
