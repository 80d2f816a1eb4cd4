(* Cache-eviction adversary sweep (replayable [Nvm.crash ~evict_fraction])
   and the drain watchdog. *)

module Sched = Dudetm_sim.Sched
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Check = Dudetm_check.Check
module Campaign = Dudetm_check.Campaign
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* S4: recovery must hold for every cache-eviction fraction — the crash
   model's choice of which dirty lines survive the cut is adversarial
   noise, not something correctness may depend on. *)
let evict_fractions = [ 0.0; 0.25; 0.5; 1.0 ]

let test_evict_sweep_replay () =
  let sut = Check.dude () in
  let wl = Check.counter ~threads:3 ~txs:2 in
  List.iter
    (fun fraction ->
      List.iter
        (fun crash ->
          match
            Check.replay ~evict:(fraction, 11) sut wl ~sched:Check.Default ~crash
          with
          | None -> ()
          | Some reason ->
            Alcotest.failf "evict %.2f crash %s: %s" fraction
              (match crash with None -> "quiescent" | Some k -> string_of_int k)
              reason)
        [ None; Some 1; Some 5; Some 9 ])
    evict_fractions

let test_evict_full_campaign () =
  (* One full (small-budget) campaign at a non-trivial fraction: every
     crash site, scheduled and randomized orders, survivors recorded. *)
  let budget : Check.budget =
    {
      Check.crash_sites = 8;
      sched_seeds = 2;
      crash_sites_per_seed = 4;
      exhaustive_runs = 0;
      exhaustive_depth = 0;
    }
  in
  let sut = Check.dude () in
  let wls = Check.workloads_for sut ~threads:3 ~txs:2 in
  match Check.check_system ~budget ~evict:(0.5, 7) sut wls with
  | Campaign.Pass { runs; _ } -> Alcotest.(check bool) "ran" true (runs > 0)
  | Campaign.Fail f ->
    Alcotest.failf "evict campaign failed: %s\n  %s" f.reason (Campaign.replay_line f)

let test_evict_failure_carries_survivors () =
  (* A mutant that the eviction adversary catches must report the evict
     knob and the surviving lines in its replay record. *)
  let budget : Check.budget =
    {
      Check.crash_sites = 25;
      sched_seeds = 2;
      crash_sites_per_seed = 6;
      exhaustive_runs = 0;
      exhaustive_depth = 0;
    }
  in
  (* Note the fraction: at 1.0 every dirty line is written back at the
     cut, which masks a missing persist fence; 0.5 loses some lines. *)
  let sut = Check.dude ~fault:Config.Early_durable_publish () in
  let wls = Check.workloads_for sut ~threads:3 ~txs:2 in
  match Check.check_system ~budget ~evict:(0.5, 3) sut wls with
  | Campaign.Pass _ -> Alcotest.fail "early-durable mutant escaped the eviction sweep"
  | Campaign.Fail f ->
    Alcotest.(check (option string)) "fraction recorded" (Some "0.5")
      (List.assoc_opt "--evict" f.args);
    Alcotest.(check (option string)) "seed recorded" (Some "3")
      (List.assoc_opt "--evict-seed" f.args);
    Alcotest.(check bool) "reason lists the surviving lines" true
      (contains f.reason "surviving lines:");
    Alcotest.(check bool) "replay line names the adversary" true
      (contains (Campaign.replay_line f) "--evict 0.5")

(* S1: the drain watchdog.  With a cycle budget far below the pipeline's
   persist latency, committed-but-unretired work must surface as a
   [Drain_stalled] diagnostic instead of an unbounded wait. *)
let test_drain_watchdog_raises () =
  let cfg =
    {
      Config.default with
      Config.heap_size = 1 lsl 16;
      root_size = 4096;
      nthreads = 1;
      vlog_capacity = 256;
      plog_size = 1 lsl 13;
      meta_size = 8192;
      seed = 7;
      drain_budget = 1;
    }
  in
  let t = D.create cfg in
  let stalled = ref None in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for _ = 1 to 8 do
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
    let has needle = contains msg needle in
    Alcotest.(check bool) "diagnostic names the budget" true (has "after 1 cycles");
    Alcotest.(check bool) "diagnostic reports pipeline stages" true
      (has "durable=" && has "applied=" && has "vlog_backlog=")

let test_drain_watchdog_quiet_on_healthy_engine () =
  (* The default budget never fires on a healthy pipeline. *)
  let cfg =
    {
      Config.default with
      Config.heap_size = 1 lsl 16;
      root_size = 4096;
      nthreads = 1;
      vlog_capacity = 256;
      plog_size = 1 lsl 13;
      meta_size = 8192;
      seed = 7;
    }
  in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for _ = 1 to 8 do
           ignore
             (D.atomically t ~thread:0 (fun tx ->
                  D.write tx (D.root_base t) (Int64.add (D.read tx (D.root_base t)) 1L)))
         done;
         D.drain t;
         D.stop t));
  Alcotest.(check int64) "all transactions retired" 8L
    (Nvm.persisted_u64 (D.nvm t) 0)

let suite =
  [
    Alcotest.test_case "evict sweep 0/25/50/100% replays clean" `Quick
      test_evict_sweep_replay;
    Alcotest.test_case "evict full campaign at 50%" `Quick test_evict_full_campaign;
    Alcotest.test_case "evict failure records knob and survivors" `Quick
      test_evict_failure_carries_survivors;
    Alcotest.test_case "drain watchdog raises on stalled pipeline" `Quick
      test_drain_watchdog_raises;
    Alcotest.test_case "drain watchdog quiet on healthy engine" `Quick
      test_drain_watchdog_quiet_on_healthy_engine;
  ]
