(* Scheduler, RNG, resource and stats tests. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Resource = Dudetm_sim.Resource
module Stats = Dudetm_sim.Stats
module Cycles = Dudetm_sim.Cycles

let check = Alcotest.check

let test_single_thread_time () =
  let total = Sched.run (fun () -> Sched.advance 1000) in
  check Alcotest.int "advance accumulates" 1000 total

let test_min_clock_order () =
  (* Two threads with different step sizes must interleave in clock order. *)
  let log = ref [] in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "a" (fun () ->
                for i = 1 to 3 do
                  Sched.advance 10;
                  log := ("a", i, Sched.now ()) :: !log
                done));
         ignore
           (Sched.spawn "b" (fun () ->
                for i = 1 to 2 do
                  Sched.advance 25;
                  log := ("b", i, Sched.now ()) :: !log
                done))));
  let times = List.rev_map (fun (_, _, t) -> t) !log in
  check Alcotest.(list int) "events fire in time order" (List.sort compare times) times

let test_wait_until_wakes () =
  let flag = ref false in
  let woke_at = ref 0 in
  let total =
    Sched.run (fun () ->
        ignore
          (Sched.spawn "waiter" (fun () ->
               Sched.wait_until ~label:"flag" (fun () -> !flag);
               woke_at := Sched.now ()));
        ignore
          (Sched.spawn "setter" (fun () ->
               Sched.advance 500;
               flag := true)))
  in
  check Alcotest.bool "waiter resumed after the setter" true (!woke_at >= 500);
  check Alcotest.bool "simulation ended at waiter's clock" true (total >= 500)

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock raises"
    (Sched.Deadlock "1:stuck waiting on never")
    (fun () ->
      ignore
        (Sched.run (fun () ->
             ignore
               (Sched.spawn "stuck" (fun () ->
                    Sched.wait_until ~label:"never" (fun () -> false))))))

let test_daemons_do_not_block_exit () =
  let cleaned = ref false in
  let total =
    Sched.run (fun () ->
        ignore
          (Sched.spawn ~daemon:true "d" (fun () ->
               try Sched.wait_until ~label:"forever" (fun () -> false)
               with Sched.Killed -> cleaned := true));
        Sched.advance 100)
  in
  check Alcotest.int "exit at main's clock" 100 total;
  check Alcotest.bool "daemon saw Killed" true !cleaned

let test_spawn_inherits_clock () =
  let child_start = ref (-1) in
  ignore
    (Sched.run (fun () ->
         Sched.advance 300;
         ignore (Sched.spawn "child" (fun () -> child_start := Sched.now ()))));
  check Alcotest.int "child starts at parent's clock" 300 !child_start

let test_exception_propagates () =
  Alcotest.check_raises "thread exception escapes run" Exit (fun () ->
      ignore
        (Sched.run (fun () ->
             ignore (Sched.spawn "boom" (fun () -> raise Exit));
             Sched.advance 10_000)))

let test_determinism () =
  let trace () =
    let log = ref [] in
    ignore
      (Sched.run (fun () ->
           for t = 0 to 2 do
             ignore
               (Sched.spawn (string_of_int t) (fun () ->
                    let rng = Rng.create (t + 1) in
                    for _ = 1 to 20 do
                      Sched.advance (1 + Rng.int rng 50);
                      log := (t, Sched.now ()) :: !log
                    done))
           done));
    !log
  in
  check Alcotest.bool "two identical runs produce identical traces" true (trace () = trace ())

let test_outside_run_fallbacks () =
  Sched.advance 50 (* no-op *);
  check Alcotest.int "now is 0 outside a run" 0 (Sched.now ());
  check Alcotest.int "self is 0 outside a run" 0 (Sched.self ());
  Sched.wait_until ~label:"true" (fun () -> true);
  check Alcotest.bool "running is false" false (Sched.running ())

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 97 in
    if v < 0 || v >= 97 then Alcotest.fail "Rng.int out of bounds"
  done

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same seed, same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  check Alcotest.bool "split streams differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "Rng.float out of range"
  done

let test_resource_serializes () =
  let r = Resource.create ~cycles_per_byte:2.0 in
  let c1 = Resource.transfer r ~now:0 ~bytes:100 ~latency:0 in
  check Alcotest.int "first transfer takes bytes*cpb" 200 c1;
  let c2 = Resource.transfer r ~now:0 ~bytes:100 ~latency:0 in
  check Alcotest.int "second transfer queues behind the first" 400 c2;
  check Alcotest.int "total bytes" 200 (Resource.total_bytes r)

let test_resource_latency_overlaps () =
  let r = Resource.create ~cycles_per_byte:1.0 in
  let c1 = Resource.transfer r ~now:0 ~bytes:10 ~latency:1000 in
  check Alcotest.int "latency dominates a small transfer" 1000 c1;
  (* The channel is busy only 10 cycles, so a second transfer queues 10
     cycles of bandwidth but its latency overlaps the first's. *)
  let c2 = Resource.transfer r ~now:0 ~bytes:10 ~latency:1000 in
  check Alcotest.int "latency overlaps across callers" 1010 c2

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.add s "a" 4;
  check Alcotest.int "accumulates" 5 (Stats.get s "a");
  check Alcotest.int "missing counter is 0" 0 (Stats.get s "zz");
  Stats.reset s;
  check Alcotest.int "reset clears" 0 (Stats.get s "a")

(* A counter resolved up front reads exactly like one bumped by name: it is
   absent until bumped, and it survives [reset]. *)
let test_stats_resolved_counters () =
  let s = Stats.create () in
  let hot = Stats.counter s "hot" and cold = Stats.counter s "cold" in
  Stats.incr s "named";
  check Alcotest.(list (pair string int)) "a resolved, unbumped counter is absent"
    [ ("named", 1) ] (Stats.to_list s);
  check Alcotest.int "and reads 0" 0 (Stats.get s "cold");
  Stats.bump hot;
  Stats.bump hot;
  Stats.add s "hot" 3;
  check Alcotest.int "bump and add share the cell" 5 (Stats.get s "hot");
  Stats.reset s;
  check Alcotest.(list (pair string int)) "reset empties the listing" [] (Stats.to_list s);
  Stats.bump hot;
  Stats.bump cold;
  Stats.add s "cold" 2;
  check Alcotest.(list (pair string int)) "cells stay valid after reset"
    [ ("cold", 3); ("hot", 1) ] (Stats.to_list s)

let test_latency_percentiles () =
  let r = Stats.Latency.create () in
  for i = 1 to 100 do
    Stats.Latency.record r i
  done;
  check Alcotest.int "p50" 50 (Stats.Latency.percentile r 50.0);
  check Alcotest.int "p99" 99 (Stats.Latency.percentile r 99.0);
  check Alcotest.int "p100" 100 (Stats.Latency.percentile r 100.0);
  check (Alcotest.float 0.01) "mean" 50.5 (Stats.Latency.mean r)

let test_cycles_conversions () =
  check Alcotest.int "1 us at 3.4 GHz" 3400 (Cycles.of_ns 1000.0);
  check (Alcotest.float 0.001) "3400 cycles is 1 us" 1.0 (Cycles.to_us 3400);
  check Alcotest.bool "1 GB/s is ~3.4 cycles per byte" true
    (abs_float (Cycles.per_byte_of_gbps 1.0 -. 3.4) < 0.01)

(* Golden schedule: a seeded program of 16 fibers (12 workers, 3 children,
   1 daemon) that advance by random (often tied) amounts, wait on shared
   counters, spawn children and include a daemon.  Every resume is logged
   as (thread id, clock).  The expected digests of that log and
   [Sched.run]'s results were recorded with the two-pass pick that the
   one-pass pick replaced, so any change to the pick order, the drag rule
   for blocked waiters or the [Choice] decision-step count shows up here. *)
let golden_run ~seed strategy =
  let log = Buffer.create 4096 in
  let note () = Printf.bprintf log "%d@%d;" (Sched.self ()) (Sched.now ()) in
  let counters = Array.make 4 0 in
  let finished = ref 0 in
  let workers = 12 and rounds = 6 in
  let child i () =
    note ();
    let rng = Rng.create ((seed * 7919) + i) in
    for k = 1 to 3 do
      Sched.advance (10 * Rng.int rng 3);
      note ();
      let c = (i + 1) mod 4 in
      Sched.wait_until ~label:"golden child" (fun () -> counters.(c) >= k + 2);
      note ()
    done
  in
  (* A worker in round [r] has bumped its group's counter [r] times before
     it waits for some counter to reach [r], so the lowest-round waiter can
     always be released: the program never deadlocks. *)
  let worker i () =
    let rng = Rng.create ((seed * 1000) + i) in
    note ();
    for r = 1 to rounds do
      Sched.advance (5 * Rng.int rng 4);
      note ();
      counters.(i mod 4) <- counters.(i mod 4) + 1;
      if Rng.int rng 3 > 0 then begin
        let j = Rng.int rng 4 in
        Sched.wait_until ~label:"golden counter" (fun () -> counters.(j) >= r);
        note ()
      end;
      if r = 3 && i mod 4 = 1 then begin
        ignore (Sched.spawn (Printf.sprintf "child%d" i) (child i));
        note ()
      end
    done;
    incr finished
  in
  let total =
    Sched.run ~strategy (fun () ->
        ignore
          (Sched.spawn ~daemon:true "watch" (fun () ->
               let seen = ref 0 in
               while true do
                 Sched.wait_until ~label:"golden watch" (fun () -> counters.(0) > !seen);
                 seen := counters.(0);
                 note ();
                 Sched.advance 7;
                 note ()
               done));
        for i = 0 to workers - 1 do
          ignore (Sched.spawn (Printf.sprintf "w%d" i) (worker i))
        done;
        Sched.wait_until ~label:"golden done" (fun () -> !finished = workers);
        note ())
  in
  (total, Digest.to_hex (Digest.string (Buffer.contents log)))

let golden_expected =
  [
    ("min_clock", 1, 75, "0d93379aacf1676f9498293623b147be");
    ("min_clock", 2, 55, "0599cfac640f13bb7111a62dd69f84c6");
    ("min_clock", 3, 75, "b0230ec4502271123f2127aba61cf87b");
    ("random_priority", 1, 85, "d6c7920b5843c8f25dcecb68fc62095c");
    ("random_priority", 2, 78, "e8b965f98458d4a0d9b151e66cd5d550");
    ("random_priority", 3, 93, "0e04c0e9591aa19562fb2b352330697f");
  ]

let test_golden_schedule () =
  List.iter
    (fun (name, seed, total, digest) ->
      let strategy =
        if name = "min_clock" then Sched.min_clock else Sched.random_priority ~seed
      in
      let got_total, got_digest = golden_run ~seed strategy in
      let what = Printf.sprintf "%s seed %d" name seed in
      check Alcotest.int (what ^ ": run result") total got_total;
      check Alcotest.string (what ^ ": resume log digest") digest got_digest)
    golden_expected

(* Golden schedule at serving scale: a seeded program shaped like the
   serving stack, with 100 fibers that mostly advance (often by tied
   amounts) and bump shared counters, 20 fibers that wait on those
   counters, one daemon and main — 122 threads in all.  Most threads sit
   paused at any step, with about 20 polling, which is the mix the
   scheduler's ready heap and waiter set are built for.  The digests were
   recorded with the one-pass all-threads pick that the heap replaced. *)
let serving_run ~seed strategy =
  let log = Buffer.create 65536 in
  let note () = Printf.bprintf log "%d@%d;" (Sched.self ()) (Sched.now ()) in
  let counters = Array.make 8 0 in
  let finished = ref 0 in
  let workers = 100 and waiters = 20 and rounds = 12 in
  (* Worker [i] bumps counter [i mod 8] once per round, so every counter
     reaches at least [12 * rounds]: each waiter's last threshold is
     reached and the program never deadlocks. *)
  let worker i () =
    let rng = Rng.create ((seed * 4099) + i) in
    for _ = 1 to rounds do
      Sched.advance (10 * Rng.int rng 4);
      counters.(i mod 8) <- counters.(i mod 8) + 1;
      if Rng.int rng 4 = 0 then note ()
    done;
    incr finished
  in
  let waiter i () =
    let rng = Rng.create ((seed * 6151) + i) in
    for k = 1 to 6 do
      let j = Rng.int rng 8 in
      Sched.wait_until ~label:"serving counter" (fun () -> counters.(j) >= 24 * k);
      note ();
      Sched.advance (Rng.int rng 3);
      note ()
    done;
    incr finished
  in
  let total =
    Sched.run ~strategy (fun () ->
        ignore
          (Sched.spawn ~daemon:true "acker" (fun () ->
               let seen = ref 0 in
               while true do
                 Sched.wait_until ~label:"serving acker" (fun () -> counters.(3) > !seen + 8);
                 seen := counters.(3);
                 note ();
                 Sched.advance 4
               done));
        for i = 0 to waiters - 1 do
          ignore (Sched.spawn (Printf.sprintf "s%d" i) (waiter i))
        done;
        for i = 0 to workers - 1 do
          ignore (Sched.spawn (Printf.sprintf "c%d" i) (worker i))
        done;
        Sched.wait_until ~label:"serving done" (fun () -> !finished = workers + waiters);
        note ())
  in
  (total, Digest.to_hex (Digest.string (Buffer.contents log)))

let serving_expected =
  [
    ("min_clock", 1, 252, "534f5485f5505b5bf963d5b685f65ab1");
    ("min_clock", 2, 302, "c1ed52b3da0e99a3e9b89adb375304d2");
    ("random_priority", 1, 262, "daa8ca772c00e72e9f97136b9d5f04c2");
    ("random_priority", 2, 305, "ca87488054a644d9cd8252bd02512cef");
  ]

let test_serving_schedule () =
  List.iter
    (fun (name, seed, total, digest) ->
      let strategy =
        if name = "min_clock" then Sched.min_clock else Sched.random_priority ~seed
      in
      let got_total, got_digest = serving_run ~seed strategy in
      let what = Printf.sprintf "serving %s seed %d" name seed in
      check Alcotest.int (what ^ ": run result") total got_total;
      check Alcotest.string (what ^ ": resume log digest") digest got_digest)
    serving_expected

(* Schedules where the advancing fiber may keep the processor.  Each
   program logs (thread id, clock) at every event; the expected logs were
   recorded with a scheduler that switched on every [advance]. *)
let logged_run main =
  let log = Buffer.create 256 in
  let note () = Printf.bprintf log "%d@%d;" (Sched.self ()) (Sched.now ()) in
  let total = Sched.run (fun () -> main note) in
  Printf.sprintf "%d|%s" total (Buffer.contents log)

(* "a" stays earliest for 12 steps of 1 cycle while "b" sits at 10. *)
let stays_earliest note =
  ignore
    (Sched.spawn "a" (fun () ->
         for _ = 1 to 12 do
           Sched.advance 1;
           note ()
         done));
  ignore
    (Sched.spawn "b" (fun () ->
         Sched.advance 10;
         note ();
         Sched.advance 1;
         note ()))

(* [advance 0] between two fibers tied at the same clock: the lower id
   wins the tie every time. *)
let advance_zero note =
  for i = 1 to 2 do
    ignore
      (Sched.spawn (Printf.sprintf "z%d" i) (fun () ->
           Sched.advance 5;
           for _ = 1 to 3 do
             Sched.advance 0;
             note ()
           done))
  done;
  Sched.advance 0;
  note ()

(* A spawn followed at once by an advance: the child, starting at the
   parent's clock, must run before the parent resumes. *)
let spawn_then_advance note =
  Sched.advance 10;
  ignore (Sched.spawn "child" (fun () -> note (); Sched.advance 1; note ()));
  Sched.advance 3;
  note ();
  ignore (Sched.spawn "child0" (fun () -> note ()));
  Sched.advance 0;
  note ()

(* A waiter released by the advancing fiber's own write was dragged to the
   writer's clock while it polled, so it wins the very next step. *)
let own_write_releases note =
  let flag = ref false in
  ignore
    (Sched.spawn "waiter" (fun () ->
         Sched.wait_until ~label:"own write" (fun () -> !flag);
         note ();
         Sched.advance 2;
         note ()));
  ignore
    (Sched.spawn "writer" (fun () ->
         Sched.advance 100;
         note ();
         flag := true;
         Sched.advance 1;
         note ();
         Sched.advance 0;
         note ()));
  Sched.advance 1;
  note ()

(* The waiter blocks at clock 0 while main takes five steps alone; each
   step drags it along, so once released it resumes at main's clock. *)
let dragged_while_alone note =
  let flag = ref false in
  ignore
    (Sched.spawn "waiter" (fun () ->
         Sched.wait_until ~label:"dragged" (fun () -> !flag);
         note ()));
  Sched.advance 1;
  for _ = 1 to 5 do
    Sched.advance 10;
    note ()
  done;
  flag := true;
  Sched.advance 1;
  note ()

let noswitch_expected =
  [
    ( "stays earliest",
      stays_earliest,
      "12|1@1;1@2;1@3;1@4;1@5;1@6;1@7;1@8;1@9;1@10;2@10;1@11;2@11;1@12;" );
    ("advance 0", advance_zero, "5|0@0;1@5;1@5;1@5;2@5;2@5;2@5;");
    ("spawn then advance", spawn_then_advance, "13|1@10;1@11;0@13;0@13;2@13;");
    ("own write releases waiter", own_write_releases, "102|0@1;2@100;1@100;2@101;2@101;1@102;");
    ( "waiter dragged while main runs alone",
      dragged_while_alone,
      "52|0@11;0@21;0@31;0@41;0@51;1@51;0@52;" );
  ]

let test_noswitch_schedules () =
  List.iter
    (fun (what, main, expected) -> check Alcotest.string what expected (logged_run main))
    noswitch_expected

(* Min_clock's pick allocates nothing per thread: the minor words one
   scheduling step costs do not grow with the number of blocked waiters
   whose (non-allocating) predicates it polls. *)
let test_pick_allocation_free () =
  let words_per_step waiters =
    let flag = ref false in
    let w0 = ref 0.0 and w1 = ref 0.0 in
    ignore
      (Sched.run (fun () ->
           for _ = 1 to waiters do
             ignore
               (Sched.spawn ~daemon:true "waiter" (fun () ->
                    Sched.wait_until ~label:"flag" (fun () -> !flag)))
           done;
           Sched.advance 1;
           w0 := Gc.minor_words ();
           for _ = 1 to 10_000 do
             Sched.advance 1
           done;
           w1 := Gc.minor_words ()));
    (!w1 -. !w0) /. 10_000.
  in
  check (Alcotest.float 0.01) "words per step with 40 waiters" (words_per_step 0)
    (words_per_step 40)

(* A waiter on a bell wakes at the step and clock of the same waiter
   polled every step, under Min_clock and under a Choice strategy: the
   writer rings after each write, and the unrelated ticker's steps are the
   ones the bell lets the scheduler skip. *)
let bell_run ?(evals = ref 0) ~belled strategy =
  let log = Buffer.create 256 in
  let note () = Printf.bprintf log "%d@%d;" (Sched.self ()) (Sched.now ()) in
  let b = Sched.bell () in
  let x = ref 0 in
  let on = if belled then Some b else None in
  let total =
    Sched.run ~strategy (fun () ->
        for i = 1 to 3 do
          ignore
            (Sched.spawn (Printf.sprintf "waiter%d" i) (fun () ->
                 Sched.wait_until ?on ~label:"x" (fun () ->
                     incr evals;
                     !x >= i * 3);
                 note ()))
        done;
        ignore
          (Sched.spawn "ticker" (fun () ->
               for _ = 1 to 40 do
                 Sched.advance 3;
                 note ()
               done));
        ignore
          (Sched.spawn "writer" (fun () ->
               for _ = 1 to 10 do
                 Sched.advance 7;
                 incr x;
                 Sched.ring b;
                 note ()
               done)))
  in
  Printf.sprintf "%d|%s" total (Buffer.contents log)

let test_bell_same_schedule () =
  List.iter
    (fun (what, strategy) ->
      let polled_evals = ref 0 and belled_evals = ref 0 in
      let polled = bell_run ~evals:polled_evals ~belled:false strategy in
      let belled = bell_run ~evals:belled_evals ~belled:true strategy in
      check Alcotest.string what polled belled;
      check Alcotest.string (what ^ ", audited") polled
        (Sched.audit (fun () -> bell_run ~belled:true strategy));
      check Alcotest.bool
        (Printf.sprintf "%s: %d belled evaluations < %d polled" what !belled_evals !polled_evals)
        true
        (!belled_evals < !polled_evals))
    [ ("min clock", Sched.min_clock); ("random priority", Sched.random_priority ~seed:7) ]

(* A write that does not ring the bell its waiter sleeps on is reported by
   the audit, naming the wait. *)
let test_audit_reports_missed_ring () =
  let unrung () =
    let b = Sched.bell () in
    let flag = ref false in
    ignore
      (Sched.run (fun () ->
           ignore
             (Sched.spawn "waiter" (fun () ->
                  Sched.wait_until ~on:b ~label:"unrung flag" (fun () -> !flag)));
           Sched.advance 10;
           flag := true;
           Sched.advance 10))
  in
  Alcotest.check_raises "missed ring" (Sched.Missed_ring "unrung flag") (fun () ->
      Sched.audit unrung)

let suite =
  [
    Alcotest.test_case "single thread accumulates time" `Quick test_single_thread_time;
    Alcotest.test_case "min-clock scheduling order" `Quick test_min_clock_order;
    Alcotest.test_case "wait_until wakes on predicate" `Quick test_wait_until_wakes;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
    Alcotest.test_case "daemons are cancelled at exit" `Quick test_daemons_do_not_block_exit;
    Alcotest.test_case "spawn inherits parent clock" `Quick test_spawn_inherits_clock;
    Alcotest.test_case "thread exceptions propagate" `Quick test_exception_propagates;
    Alcotest.test_case "simulation is deterministic" `Quick test_determinism;
    Alcotest.test_case "golden schedule" `Quick test_golden_schedule;
    Alcotest.test_case "golden schedule at serving scale" `Quick test_serving_schedule;
    Alcotest.test_case "golden no-switch schedules" `Quick test_noswitch_schedules;
    Alcotest.test_case "min-clock pick allocates nothing" `Quick test_pick_allocation_free;
    Alcotest.test_case "belled waiter wakes like a polled one" `Quick test_bell_same_schedule;
    Alcotest.test_case "audit reports a missed ring" `Quick test_audit_reports_missed_ring;
    Alcotest.test_case "helpers degrade gracefully outside run" `Quick test_outside_run_fallbacks;
    Alcotest.test_case "rng int bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "resource serializes bandwidth" `Quick test_resource_serializes;
    Alcotest.test_case "resource latency overlaps" `Quick test_resource_latency_overlaps;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
    Alcotest.test_case "stats resolved counters" `Quick test_stats_resolved_counters;
    Alcotest.test_case "latency percentiles" `Quick test_latency_percentiles;
    Alcotest.test_case "cycle conversions" `Quick test_cycles_conversions;
  ]
