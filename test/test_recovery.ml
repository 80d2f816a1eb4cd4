(* Re-entrant recovery: the intent journal (crash-during-recovery and
   crash-during-scrub idempotence), supervised daemon restarts, log-full
   backpressure and the degraded read-only mode. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Rjournal = Dudetm_core.Rjournal
module Checkpoint = Dudetm_core.Checkpoint
module Check = Dudetm_check.Check
module Campaign = Dudetm_check.Campaign
module Scrub = Dudetm_scrub.Scrub
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let small_cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    root_size = 4096;
    nthreads = 2;
    vlog_capacity = 256;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    checkpoint_records = 2;
    seed = 7;
  }

exception Cut

(* Run a single-thread root-counter workload and cut power — at the
   [crash]-th persist boundary, or after drain + stop when [crash] is
   beyond the run (or [None]). *)
let run_and_crash ?crash ?(txs = 8) cfg =
  let t = D.create cfg in
  let nvm = D.nvm t in
  let sites = ref 0 in
  Nvm.set_persist_hook nvm
    (Some
       (fun () ->
         incr sites;
         match crash with Some k when !sites = k -> raise Cut | _ -> ()));
  (try
     ignore
       (Sched.run (fun () ->
            D.start t;
            for _ = 1 to txs do
              ignore
                (D.atomically t ~thread:0 (fun tx ->
                     D.write tx (D.root_base t) (Int64.add (D.read tx (D.root_base t)) 1L)))
            done;
            D.drain t;
            D.stop t))
   with Cut -> ());
  Nvm.set_persist_hook nvm None;
  Nvm.crash nvm;
  nvm

(* ------------------------------------------------------------------ *)
(* Intent journal                                                     *)
(* ------------------------------------------------------------------ *)

let test_rjournal_roundtrip () =
  let cfg = small_cfg in
  let nvm = run_and_crash ~txs:1 cfg in
  let base = Config.rjournal_base cfg in
  let j = Rjournal.format nvm ~base in
  Alcotest.(check bool) "fresh journal idle" true (Rjournal.read j = Rjournal.Idle);
  let v =
    {
      Rjournal.v_durable = 5;
      v_replayed_txs = 2;
      v_discarded_txs = 1;
      v_discarded_records = 1;
      v_corrupted_records = 0;
      v_quarantined_lines = 0;
    }
  in
  Rjournal.write j (Rjournal.Replay v);
  let j2 = Rjournal.attach nvm ~base in
  Alcotest.(check bool) "verdict survives re-attach" true
    (Rjournal.read j2 = Rjournal.Replay v);
  Rjournal.write j2 (Rjournal.Probe { line = 3; original = 42L });
  Alcotest.(check bool) "probe intent readable" true
    (Rjournal.read (Rjournal.attach nvm ~base) = Rjournal.Probe { line = 3; original = 42L })

let test_rjournal_torn_slot () =
  let cfg = small_cfg in
  let nvm = run_and_crash ~txs:1 cfg in
  let base = Config.rjournal_base cfg in
  let j = Rjournal.format nvm ~base in
  let v =
    {
      Rjournal.v_durable = 9;
      v_replayed_txs = 3;
      v_discarded_txs = 0;
      v_discarded_records = 0;
      v_corrupted_records = 0;
      v_quarantined_lines = 0;
    }
  in
  Rjournal.write j (Rjournal.Replay v);
  Rjournal.write j (Rjournal.Probe { line = 1; original = 7L });
  (* The probe landed in the second slot (sequence 3).  Tear it: a torn
     intent write must leave the previously sealed verdict in force. *)
  let torn = base + 128 + 20 in
  Nvm.store_u8 nvm torn (Nvm.load_u8 nvm torn lxor 0xff);
  Nvm.persist nvm ~off:torn ~len:1;
  Alcotest.(check bool) "torn slot falls back to sealed verdict" true
    (Rjournal.read (Rjournal.attach nvm ~base) = Rjournal.Replay v);
  (* Tear the other slot too: with no valid slot at all, no intent can
     ever have been sealed, so the journal self-heals to Idle. *)
  let torn0 = base + 20 in
  Nvm.store_u8 nvm torn0 (Nvm.load_u8 nvm torn0 lxor 0xff);
  Nvm.persist nvm ~off:torn0 ~len:1;
  Alcotest.(check bool) "both torn self-heals to idle" true
    (Rjournal.read (Rjournal.attach nvm ~base) = Rjournal.Idle)

(* ------------------------------------------------------------------ *)
(* Config validation                                                  *)
(* ------------------------------------------------------------------ *)

let test_invalid_config () =
  let reject msg cfg =
    match Config.validate cfg with
    | () -> Alcotest.failf "%s: invalid config accepted" msg
    | exception Config.Invalid_config m ->
      Alcotest.(check bool) (msg ^ ": message labelled") true (contains m "Config:")
  in
  reject "negative daemon fault rate" { small_cfg with Config.daemon_fault_rate = -0.1 };
  reject "fault rate above one" { small_cfg with Config.daemon_fault_rate = 1.5 };
  reject "backoff cap below base"
    { small_cfg with Config.daemon_backoff_base = 1000; daemon_backoff_cap = 10 };
  reject "hwm fraction above one" { small_cfg with Config.bp_hwm_fraction = 1.5 };
  reject "negative throttle budget" { small_cfg with Config.bp_wait_budget = -1 };
  reject "negative pmalloc budget" { small_cfg with Config.pmalloc_wait_budget = -1 };
  Config.validate small_cfg

(* ------------------------------------------------------------------ *)
(* Double-attach and double-scrub idempotence                         *)
(* ------------------------------------------------------------------ *)

let test_double_attach_idempotent () =
  let cfg = small_cfg in
  (* Mid-pipeline cut: the first attach has real replay work to do. *)
  let nvm = run_and_crash ~crash:23 cfg in
  let heap () = Nvm.persisted_bytes nvm 0 cfg.Config.heap_size in
  let ckpt_state () =
    snd (Checkpoint.attach nvm ~base:(Config.meta_base cfg) ~size:cfg.Config.meta_size)
  in
  let t1, r1 = D.attach cfg nvm in
  let h1 = heap () and c1 = ckpt_state () in
  (* Power lost the instant recovery finished: a fresh attach must
     converge to the identical verdict, heap and allocator state. *)
  Nvm.crash nvm;
  let t2, r2 = D.attach cfg nvm in
  Alcotest.(check bool) "recovery reports identical" true (r1 = r2);
  Alcotest.(check int) "durable id identical" (D.durable_id t1) (D.durable_id t2);
  Alcotest.(check bool) "heap bytes identical" true (h1 = heap ());
  Alcotest.(check bool) "checkpointed allocator identical" true (c1 = ckpt_state ())

let test_double_scrub_idempotent () =
  let cfg = small_cfg in
  let nvm = run_and_crash cfg in
  (* Rot a byte the workload never writes: no live record covers it, so
     the checkpointed content is unreconstructible and the loss must be
     *reported* — identically, no matter how many times the scrub runs. *)
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = 3000; bit = 2 });
  let r1 = Scrub.scrub ~repair:true ~probe_stuck:true cfg nvm in
  let h1 = Nvm.persisted_bytes nvm 0 cfg.Config.heap_size in
  let r2 = Scrub.scrub ~repair:true ~probe_stuck:true cfg nvm in
  let h2 = Nvm.persisted_bytes nvm 0 cfg.Config.heap_size in
  let r3 = Scrub.scrub ~repair:true ~probe_stuck:true cfg nvm in
  Alcotest.(check bool) "damage reported" true (r1.Scrub.bad_extents <> []);
  (* The first pass may additionally repair extents left stale by the
     crash; from then on the verdict is a fixed point: the unrepairable
     loss is re-reported identically, nothing else changes. *)
  Alcotest.(check bool) "unrepairable loss re-reported identically" true
    (r1.Scrub.bad_extents = r2.Scrub.bad_extents);
  Alcotest.(check int) "nothing left to repair" 0 r2.Scrub.extents_repaired;
  if r2 <> r3 then
    Alcotest.failf "scrub verdict did not reach a fixed point:\n  second: %s\n  third:  %s"
      (Format.asprintf "%a" Scrub.pp_report r2)
      (Format.asprintf "%a" Scrub.pp_report r3);
  Alcotest.(check bool) "repeated scrub leaves the heap untouched" true (h1 = h2)

(* ------------------------------------------------------------------ *)
(* Nested-crash campaign                                              *)
(* ------------------------------------------------------------------ *)

let test_recovery_campaign_smoke () =
  match Check.run ~level:Campaign.Quick Campaign.Recovery with
  | Campaign.Pass { runs; boundaries; _ } ->
    Alcotest.(check bool) "explored runs" true (runs > 10);
    Alcotest.(check bool) "counted boundaries" true (boundaries > 0)
  | Campaign.Fail f ->
    Alcotest.failf "nested-crash campaign failed: %s\n  %s" f.reason (Campaign.replay_line f)

(* ------------------------------------------------------------------ *)
(* Supervised daemons                                                 *)
(* ------------------------------------------------------------------ *)

let test_daemon_fault_sweep () =
  match Check.run ~level:Campaign.Quick Campaign.Daemons with
  | Campaign.Pass { runs; tallies; _ } ->
    Alcotest.(check bool) "ran" true (runs > 0);
    Alcotest.(check bool) "faults injected" true (List.assoc "faults injected" tallies > 0);
    Alcotest.(check bool) "daemons restarted" true (List.assoc "restarts" tallies > 0)
  | Campaign.Fail f ->
    Alcotest.failf "daemon fault sweep failed: %s\n  %s" f.reason (Campaign.replay_line f)

let test_daemon_restarts_counted () =
  let cfg = { small_cfg with Config.daemon_fault_rate = 0.3 } in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for _ = 1 to 10 do
           ignore
             (D.atomically t ~thread:0 (fun tx ->
                  D.write tx (D.root_base t) (Int64.add (D.read tx (D.root_base t)) 1L)))
         done;
         D.drain t;
         D.stop t));
  Alcotest.(check int64) "no committed work lost to daemon faults" 10L
    (D.heap_read_u64 t (D.root_base t));
  Alcotest.(check int) "fully durable" 10 (D.durable_id t);
  let st = D.stats t in
  Alcotest.(check bool) "faults counted" true (Stats.get st "daemon_faults" > 0);
  Alcotest.(check bool) "restarts counted" true (Stats.get st "daemon_restarts" > 0);
  Alcotest.(check bool) "backoff cycles counted" true
    (Stats.get st "daemon_backoff_cycles" > 0)

(* ------------------------------------------------------------------ *)
(* Backpressure                                                       *)
(* ------------------------------------------------------------------ *)

let test_backpressure_throttle () =
  (* A zero high-water mark makes every transaction see ring pressure, so
     the throttle path runs deterministically; the bounded wait must
     still let every transaction through. *)
  let cfg = { small_cfg with Config.bp_hwm_fraction = 0.0; bp_wait_budget = 500 } in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for _ = 1 to 5 do
           ignore
             (D.atomically t ~thread:0 (fun tx ->
                  D.write tx (D.root_base t) (Int64.add (D.read tx (D.root_base t)) 1L)))
         done;
         D.drain t;
         D.stop t));
  Alcotest.(check int64) "throttled but not blocked" 5L (D.heap_read_u64 t (D.root_base t));
  let st = D.stats t in
  Alcotest.(check bool) "throttle events counted" true (Stats.get st "bp_throttle_events" > 0);
  Alcotest.(check bool) "stall cycles counted" true (Stats.get st "bp_throttle_cycles" > 0);
  Alcotest.(check bool) "ring high-water mark tracked" true
    (Stats.get st "plog_hwm_bytes" > 0);
  Alcotest.(check bool) "vlog high-water mark tracked" true
    (Stats.get st "vlog_hwm_entries" > 0)

let test_pmalloc_bounded_wait () =
  let cfg = { small_cfg with Config.pmalloc_wait_budget = 300 } in
  let t = D.create cfg in
  let raised = ref false in
  ignore
    (Sched.run (fun () ->
         D.start t;
         (try
            while true do
              ignore (D.atomically t ~thread:0 (fun tx -> ignore (D.pmalloc tx 4096)))
            done
          with Dudetm_core.Dudetm.Pmem_exhausted -> raised := true)));
  Alcotest.(check bool) "exhaustion still surfaces after the bounded wait" true !raised;
  Alcotest.(check bool) "allocation waits counted" true
    (Stats.get (D.stats t) "pmalloc_waits" > 0)

(* ------------------------------------------------------------------ *)
(* Degraded read-only mode                                            *)
(* ------------------------------------------------------------------ *)

let test_read_only_mode () =
  let t = D.create small_cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         ignore (D.atomically t ~thread:0 (fun tx -> D.write tx (D.root_base t) 7L));
         D.drain t;
         D.freeze t ~reason:"unreconstructible extents";
         Alcotest.(check bool) "frozen reason visible" true
           (D.read_only t = Some "unreconstructible extents");
         (match D.atomically t ~thread:0 (fun tx -> D.read tx (D.root_base t)) with
         | Some (v, _) -> Alcotest.(check int64) "reads still served" 7L v
         | None -> Alcotest.fail "read-only transaction aborted");
         (match D.atomically t ~thread:0 (fun tx -> D.write tx (D.root_base t) 9L) with
         | exception Dudetm_core.Dudetm.Read_only reason ->
           Alcotest.(check string) "write rejected with the freeze reason"
             "unreconstructible extents" reason
         | _ -> Alcotest.fail "write accepted in read-only mode");
         (match D.atomically t ~thread:0 (fun tx -> ignore (D.pmalloc tx 64)) with
         | exception Dudetm_core.Dudetm.Read_only _ -> ()
         | _ -> Alcotest.fail "pmalloc accepted in read-only mode");
         D.stop t));
  Alcotest.(check int64) "state preserved" 7L (D.heap_read_u64 t (D.root_base t))

(* ------------------------------------------------------------------ *)
(* Drain diagnostics                                                  *)
(* ------------------------------------------------------------------ *)

let test_drain_diagnostic_fields () =
  let cfg = { small_cfg with Config.nthreads = 1; drain_budget = 1 } in
  let t = D.create cfg in
  let stalled = ref None in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for _ = 1 to 4 do
           ignore
             (D.atomically t ~thread:0 (fun tx ->
                  D.write tx (D.root_base t) (Int64.add (D.read tx (D.root_base t)) 1L)))
         done;
         match D.drain t with
         | () -> ()
         | exception Dudetm_core.Dudetm.Drain_stalled msg -> stalled := Some msg));
  match !stalled with
  | None -> Alcotest.fail "drain returned despite a 1-cycle budget"
  | Some msg ->
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("diagnostic reports " ^ needle) true (contains msg needle))
      [ "daemon_restarts="; "daemon_backoff_cycles="; "bp_throttle_events="; "read_only=" ]

let suite =
  [
    Alcotest.test_case "intent journal roundtrip" `Quick test_rjournal_roundtrip;
    Alcotest.test_case "torn intent leaves previous in force" `Quick test_rjournal_torn_slot;
    Alcotest.test_case "invalid config rejected" `Quick test_invalid_config;
    Alcotest.test_case "double attach idempotent" `Quick test_double_attach_idempotent;
    Alcotest.test_case "double scrub idempotent" `Quick test_double_scrub_idempotent;
    Alcotest.test_case "nested-crash campaign passes" `Quick test_recovery_campaign_smoke;
    Alcotest.test_case "daemon fault sweep" `Quick test_daemon_fault_sweep;
    Alcotest.test_case "daemon restarts counted, no work lost" `Quick
      test_daemon_restarts_counted;
    Alcotest.test_case "backpressure throttles, never blocks" `Quick test_backpressure_throttle;
    Alcotest.test_case "pmalloc bounded wait" `Quick test_pmalloc_bounded_wait;
    Alcotest.test_case "degraded read-only mode" `Quick test_read_only_mode;
    Alcotest.test_case "drain diagnostic covers supervision" `Quick
      test_drain_diagnostic_fields;
  ]
