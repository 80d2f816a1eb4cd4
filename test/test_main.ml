let () =
  Alcotest.run "dudetm"
    [
      ("sim", Test_sim.suite);
      ("nvm", Test_nvm.suite);
      ("log", Test_log.suite);
      ("lz", Test_lz.suite);
      ("plog", Test_plog.suite);
      ("tm", Test_tm.suite);
      ("shadow", Test_shadow.suite);
      ("alloc", Test_alloc.suite);
      ("dudetm", Test_dudetm.suite);
      ("engine-edge", Test_engine_edge.suite);
      ("baselines", Test_baselines.suite);
      ("workloads", Test_workloads.suite);
      ("kv", Test_kv.suite);
      ("check", Test_check.suite);
      ("scrub", Test_scrub.suite);
      ("media", Test_media.suite);
      ("recovery", Test_recovery.suite);
      ("trace", Test_trace.suite);
      ("batch", Test_batch.suite);
      ("shard", Test_shard.suite);
      ("partition", Test_partition.suite);
      ("migrate", Test_migrate.suite);
      ("differential", Test_differential.suite);
      ("replica", Test_replica.suite);
      ("snapshot", Test_snapshot.suite);
      ("serve", Test_serve.suite);
      ("audit", Test_audit.suite);
    ]
