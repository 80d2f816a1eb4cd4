(* The ring contract under the reference poll.  Every scenario below runs
   under [Sched.audit]: at every scheduling step the scheduler also
   re-evaluates each waiter its bell let it skip, and fails naming the wait
   if that predicate reads true — a write to waited-on state that did not
   ring its bell.  The scenarios cover every belled wait: the engine's
   durability and work bells (plain and combined group commit), the shard
   layer's frontier and lock bells (cross-shard transfers, migration), the
   serving front end's queue bells, a follower's replay gate on hostile
   links, and durable snapshot pins. *)

module Sched = Dudetm_sim.Sched
module Campaign = Dudetm_check.Campaign
module Check = Dudetm_check.Check

let campaign c () =
  match Check.run ~level:Campaign.Quick c with
  | Campaign.Pass _ -> ()
  | Campaign.Fail f -> Alcotest.failf "campaign failed: %s" (Campaign.replay_line f)

let scenarios =
  [
    ("engine, plain", Test_dudetm.test_pipeline_completes);
    ("engine, acknowledged txs", Test_dudetm.test_acknowledged_txs_survive);
    ("engine, sync mode", Test_dudetm.test_sync_mode_durable_at_return);
    ("engine, combined", Test_batch.test_pipeline_overlap_in_trace);
    ("engine, combined watermark", Test_batch.test_watermark_per_batch);
    ("shard, cross transfers", Test_shard.test_wait_durable_cross);
    ("shard, combined fragments", Test_shard.test_combined_fragment_sealed_alone);
    ("shard, crash campaign", campaign Campaign.Shards);
    ("serve, DRR fairness", Test_serve.test_fairness_cold_tenant);
    ("serve, open and closed loops", Test_serve.test_closed_open_agree);
    ("serve, crash campaign", campaign Campaign.Serve);
    ("replica, hostile links", Test_replica.test_faulty_links_end_to_end);
    ("replica, failover campaign", campaign Campaign.Replica);
    ("snapshot, quorum-pinned reads", Test_snapshot.test_replica_quorum_reads);
    ("snapshot, pin waits out a partition", Test_snapshot.test_pin_waits_out_partition);
    ("snapshot, reads during a migration", Test_snapshot.test_mid_migration_reads);
    ("migrate, bucket handoff", Test_migrate.test_clean_migration);
  ]

let suite =
  List.map
    (fun (name, f) ->
      Alcotest.test_case ("audit: " ^ name) `Quick (fun () -> Sched.audit f))
    scenarios
