(* Transactional-memory tests: lock table, TinySTM serializability and
   rollback, HTM conflicts/capacity/fallback. *)

module Lock_table = Dudetm_tm.Lock_table
module Tinystm = Dudetm_tm.Tinystm
module Tinystm_wb = Dudetm_tm.Tinystm_wb
module Htm = Dudetm_tm.Htm
module Tm_intf = Dudetm_tm.Tm_intf
module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats

let check = Alcotest.check

(* ----------------------------- lock table ---------------------------- *)

let test_lock_table_acquire_release () =
  let t = Lock_table.create ~bits:4 () in
  let s = Lock_table.stripe_of_addr t 64 in
  let w = Lock_table.word t s in
  check Alcotest.(pair bool int) "fresh stripe is free at version 0" (false, 0)
    (Lock_table.owned w, Lock_table.value w);
  (match Lock_table.acquire t ~stripe:s ~uid:7 with
  | Some 0 -> ()
  | _ -> Alcotest.fail "acquire should return previous version 0");
  let w = Lock_table.word t s in
  check Alcotest.(pair bool int) "stripe owned by 7" (true, 7)
    (Lock_table.owned w, Lock_table.value w);
  check Alcotest.bool "second acquire fails" true (Lock_table.acquire t ~stripe:s ~uid:8 = None);
  Lock_table.release_to t ~stripe:s ~version:42;
  let w = Lock_table.word t s in
  check Alcotest.(pair bool int) "release installs the version" (false, 42)
    (Lock_table.owned w, Lock_table.value w)

let test_lock_table_stripe_mapping () =
  let t = Lock_table.create ~bits:8 () in
  check Alcotest.int "same word, same stripe" (Lock_table.stripe_of_addr t 128)
    (Lock_table.stripe_of_addr t 128);
  let distinct =
    List.sort_uniq compare (List.init 200 (fun i -> Lock_table.stripe_of_addr t (8 * i)))
  in
  check Alcotest.bool "addresses spread over stripes" true (List.length distinct > 100)

(* --------------------------- generic TM tests ------------------------ *)

let mem_tm (type t) (module Tm : Tm_intf.S with type t = t) ?costs () =
  let mem = Bytes.make 8192 '\000' in
  (Tm.create ?costs (Tm_intf.mem_store mem), mem)

module type TM = Tm_intf.S

let counter_increments (module Tm : TM) name =
  (* N threads increment a shared counter transactionally; the result must
     equal the number of committed increments (atomicity + isolation). *)
  let tm, mem = mem_tm (module Tm) () in
  let per = 200 in
  let threads = 4 in
  ignore
    (Sched.run (fun () ->
         for t = 0 to threads - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "inc-%d" t) (fun () ->
                  for _ = 1 to per do
                    match
                      Tm.run tm (fun tx ->
                          let v = Tm.read tx 0 in
                          Tm.write tx 0 (Int64.add v 1L))
                    with
                    | Some _ -> ()
                    | None -> Alcotest.fail "unexpected user abort"
                  done))
         done));
  check Alcotest.int64 (name ^ ": counter equals total increments")
    (Int64.of_int (per * threads))
    (Bytes.get_int64_le mem 0);
  check Alcotest.int (name ^ ": contiguous tids") (per * threads) (Tm.last_tid tm)

let bank_transfers (module Tm : TM) name =
  (* Classic invariant: total balance conserved under concurrent random
     transfers, including user aborts on insufficient funds. *)
  let tm, mem = mem_tm (module Tm) () in
  let accounts = 32 in
  for i = 0 to accounts - 1 do
    Bytes.set_int64_le mem (8 * i) 100L
  done;
  ignore
    (Sched.run (fun () ->
         for t = 0 to 3 do
           ignore
             (Sched.spawn (Printf.sprintf "bank-%d" t) (fun () ->
                  let rng = Rng.create (50 + t) in
                  for _ = 1 to 150 do
                    let src = 8 * Rng.int rng accounts in
                    let dst = 8 * Rng.int rng accounts in
                    let amount = Int64.of_int (1 + Rng.int rng 50) in
                    ignore
                      (Tm.run tm (fun tx ->
                           let s = Tm.read tx src in
                           if s < amount then Tm.user_abort tx
                           else begin
                             Tm.write tx src (Int64.sub s amount);
                             let d = Tm.read tx dst in
                             Tm.write tx dst (Int64.add d amount)
                           end))
                  done))
         done));
  let total = ref 0L in
  for i = 0 to accounts - 1 do
    total := Int64.add !total (Bytes.get_int64_le mem (8 * i))
  done;
  check Alcotest.int64 (name ^ ": total balance conserved") (Int64.of_int (100 * accounts)) !total

let rollback_on_user_abort (module Tm : TM) name =
  let tm, mem = mem_tm (module Tm) () in
  Bytes.set_int64_le mem 0 11L;
  let r =
    Tm.run tm (fun tx ->
        Tm.write tx 0 99L;
        Tm.write tx 8 100L;
        Tm.user_abort tx)
  in
  check Alcotest.bool (name ^ ": abort returns None") true (r = None);
  check Alcotest.int64 (name ^ ": first write rolled back") 11L (Bytes.get_int64_le mem 0);
  check Alcotest.int64 (name ^ ": second write rolled back") 0L (Bytes.get_int64_le mem 8)

let read_only_tid_zero (module Tm : TM) name =
  let tm, _ = mem_tm (module Tm) () in
  (match Tm.run tm (fun tx -> Tm.read tx 0) with
  | Some (_, tid) -> check Alcotest.int (name ^ ": read-only tid is 0") 0 tid
  | None -> Alcotest.fail "read-only tx aborted");
  check Alcotest.int (name ^ ": clock unchanged") 0 (Tm.last_tid tm)

let on_retry_called (module Tm : TM) name =
  (* Force a conflict and observe the retry hook. *)
  let tm, _ = mem_tm (module Tm) () in
  let retries = ref 0 in
  let rounds = ref 0 in
  ignore
    (Sched.run (fun () ->
         for t = 0 to 1 do
           ignore
             (Sched.spawn (Printf.sprintf "c-%d" t) (fun () ->
                  for _ = 1 to 100 do
                    ignore
                      (Tm.run ~on_retry:(fun () -> incr retries) tm (fun tx ->
                           incr rounds;
                           let v = Tm.read tx 0 in
                           Sched.advance 40;
                           Tm.write tx 0 (Int64.add v 1L)))
                  done))
         done));
  check Alcotest.bool (name ^ ": conflicts happened") true (!retries > 0);
  check Alcotest.int (name ^ ": every retry re-ran the body") !rounds (200 + !retries)

let tm_tests name (module Tm : TM) =
  [
    Alcotest.test_case (name ^ ": concurrent counter") `Quick (fun () ->
        counter_increments (module Tm) name);
    Alcotest.test_case (name ^ ": bank transfers conserve balance") `Quick (fun () ->
        bank_transfers (module Tm) name);
    Alcotest.test_case (name ^ ": user abort rolls back") `Quick (fun () ->
        rollback_on_user_abort (module Tm) name);
    Alcotest.test_case (name ^ ": read-only commits without tid") `Quick (fun () ->
        read_only_tid_zero (module Tm) name);
    Alcotest.test_case (name ^ ": retry hook") `Quick (fun () -> on_retry_called (module Tm) name);
  ]

(* --------------------------- TinySTM specifics ----------------------- *)

let test_stm_write_through_visible_to_self () =
  let tm, _ = mem_tm (module Tinystm) () in
  match
    Tinystm.run tm (fun tx ->
        Tinystm.write tx 0 5L;
        Tinystm.read tx 0)
  with
  | Some (v, _) -> check Alcotest.int64 "read own write" 5L v
  | None -> Alcotest.fail "aborted"

let test_stm_snapshot_isolation () =
  (* A reader that started before a writer commits must either see the old
     consistent snapshot or abort-and-retry — never a mix. *)
  let tm, mem = mem_tm (module Tinystm) () in
  Bytes.set_int64_le mem 0 1L;
  Bytes.set_int64_le mem 512 1L;
  let observed = ref [] in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "reader" (fun () ->
                for _ = 1 to 50 do
                  match
                    Tinystm.run tm (fun tx ->
                        let a = Tinystm.read tx 0 in
                        Sched.advance 100;
                        let b = Tinystm.read tx 512 in
                        (a, b))
                  with
                  | Some ((a, b), _) -> observed := (a, b) :: !observed
                  | None -> ()
                done));
         ignore
           (Sched.spawn "writer" (fun () ->
                for i = 2 to 40 do
                  ignore
                    (Tinystm.run tm (fun tx ->
                         Tinystm.write tx 0 (Int64.of_int i);
                         Sched.advance 60;
                         Tinystm.write tx 512 (Int64.of_int i)));
                  Sched.advance 120
                done))));
  List.iter
    (fun (a, b) ->
      if a <> b then
        Alcotest.failf "torn snapshot observed: %Ld vs %Ld" a b)
    !observed

let test_stm_abort_stats () =
  let tm, _ = mem_tm (module Tinystm) () in
  ignore
    (Sched.run (fun () ->
         for t = 0 to 3 do
           ignore
             (Sched.spawn (string_of_int t) (fun () ->
                  for _ = 1 to 50 do
                    ignore
                      (Tinystm.run tm (fun tx ->
                           let v = Tinystm.read tx 0 in
                           Sched.advance 30;
                           Tinystm.write tx 0 (Int64.add v 1L)))
                  done))
         done));
  let s = Tinystm.stats tm in
  check Alcotest.int "commits counted" 200 (Stats.get s "commits");
  check Alcotest.bool "aborts counted" true (Stats.get s "aborts" > 0);
  (* Every conflict rollback takes a randomized backoff pause; both the
     pause count and the simulated cycles spent must be visible. *)
  check Alcotest.int "backoffs = aborts" (Stats.get s "aborts") (Stats.get s "backoffs");
  check Alcotest.bool "backoff cycles accumulated" true
    (Stats.get s "backoff_cycles" >= 64 * Stats.get s "backoffs")

(* ----------------------------- HTM specifics ------------------------- *)

let test_wb_buffers_until_commit () =
  let mem = Bytes.make 1024 '\000' in
  let tm = Tinystm_wb.create (Tm_intf.mem_store mem) in
  let tx = Tinystm_wb.begin_tx tm in
  Tinystm_wb.write tx 0 7L;
  check Alcotest.int64 "store untouched before commit" 0L (Bytes.get_int64_le mem 0);
  check Alcotest.int64 "own write visible via redirection" 7L (Tinystm_wb.read tx 0);
  ignore (Tinystm_wb.commit tx);
  check Alcotest.int64 "applied at commit" 7L (Bytes.get_int64_le mem 0)

let test_htm_write_buffering () =
  (* HTM writes must be invisible until commit. *)
  let mem = Bytes.make 1024 '\000' in
  let tm = Htm.create (Tm_intf.mem_store mem) in
  let tx = Htm.begin_tx tm in
  Htm.write tx 0 7L;
  check Alcotest.int64 "store untouched before commit" 0L (Bytes.get_int64_le mem 0);
  check Alcotest.int64 "but visible to self" 7L (Htm.read tx 0);
  ignore (Htm.commit tx);
  check Alcotest.int64 "applied at commit" 7L (Bytes.get_int64_le mem 0)

let test_htm_capacity_fallback () =
  let mem = Bytes.make (1 lsl 20) '\000' in
  let tm = Htm.create_htm ~capacity_lines:8 (Tm_intf.mem_store mem) in
  ignore
    (Sched.run (fun () ->
         match
           Htm.run tm (fun tx ->
               (* Touch 32 distinct lines: beyond the 8-line capacity. *)
               for i = 0 to 31 do
                 Htm.write tx (i * 64) 1L
               done)
         with
         | Some _ -> ()
         | None -> Alcotest.fail "capacity fallback should still commit"));
  check Alcotest.bool "capacity abort recorded" true
    (Stats.get (Htm.stats tm) "capacity_aborts" > 0);
  check Alcotest.bool "fallback used" true (Stats.get (Htm.stats tm) "fallbacks" > 0);
  check Alcotest.int64 "fallback writes applied" 1L (Bytes.get_int64_le mem 0)

let test_htm_fallback_preserves_commit_order () =
  (* Capacity aborts past the retry budget push big transactions onto the
     global-lock fallback while small ones keep committing in hardware; the
     two paths must still agree on a single serial commit-ID order.  Every
     transaction bumps a shared counter, so its post-increment value is its
     serialization rank — which must match its commit ID exactly. *)
  let mem = Bytes.make (1 lsl 20) '\000' in
  let tm =
    Htm.create_htm ~capacity_lines:8 ~max_retries:2 (Tm_intf.mem_store mem)
  in
  let commits = ref [] in
  ignore
    (Sched.run (fun () ->
         for t = 0 to 2 do
           ignore
             (Sched.spawn (Printf.sprintf "mix-%d" t) (fun () ->
                  for i = 1 to 30 do
                    let big = i mod 3 = 0 in
                    match
                      Htm.run tm (fun tx ->
                          let s = Int64.to_int (Htm.read tx 0) + 1 in
                          Htm.write tx 0 (Int64.of_int s);
                          (* Touch 31 extra lines: past the 8-line write
                             capacity, so retries can't help. *)
                          if big then
                            for j = 1 to 31 do
                              Htm.write tx ((t * 16384) + (j * 64)) (Int64.of_int s)
                            done;
                          s)
                    with
                    | Some (s, tid) -> commits := (tid, s) :: !commits
                    | None -> Alcotest.fail "unexpected user abort"
                  done))
         done));
  let sorted = List.sort compare !commits in
  check Alcotest.int "every transaction committed" 90 (List.length sorted);
  List.iteri
    (fun idx (tid, s) ->
      if tid <> idx + 1 || s <> idx + 1 then
        Alcotest.failf "commit order diverges: tid %d serialized as rank %d" tid s)
    sorted;
  check Alcotest.int64 "counter equals total commits" 90L (Bytes.get_int64_le mem 0);
  check Alcotest.bool "capacity aborts past the retry budget" true
    (Stats.get (Htm.stats tm) "capacity_aborts" > 0);
  let fallbacks = Stats.get (Htm.stats tm) "fallbacks" in
  check Alcotest.bool "some commits took the lock fallback" true (fallbacks > 0);
  check Alcotest.bool "some commits stayed in hardware" true (fallbacks < 90)

let test_htm_conflict_dooms_reader () =
  let mem = Bytes.make 1024 '\000' in
  let tm = Htm.create (Tm_intf.mem_store mem) in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "reader" (fun () ->
                ignore
                  (Htm.run tm (fun tx ->
                       let a = Htm.read tx 0 in
                       (* Yield so the writer can commit in between. *)
                       Sched.advance 500;
                       let b = Htm.read tx 0 in
                       check Alcotest.int64 "doomed reader never sees a mix" a b))));
         ignore
           (Sched.spawn "writer" (fun () ->
                Sched.advance 100;
                ignore (Htm.run tm (fun tx -> Htm.write tx 0 5L))))));
  check Alcotest.bool "reader aborted at least once" true
    (Stats.get (Htm.stats tm) "conflict_aborts" > 0)

let test_htm_tid_conflicts_ablation () =
  (* Stock hardware: commits of disjoint transactions still doom each
     other through the tx-ID counter. *)
  let run_with tid_conflicts =
    let mem = Bytes.make 65536 '\000' in
    let tm = Htm.create_htm ~tid_conflicts (Tm_intf.mem_store mem) in
    ignore
      (Sched.run (fun () ->
           for t = 0 to 3 do
             ignore
               (Sched.spawn (string_of_int t) (fun () ->
                    for i = 0 to 50 do
                      (* Every thread writes a distinct address: no real
                         data conflicts. *)
                      ignore
                        (Htm.run tm (fun tx ->
                             Htm.write tx ((t * 8192) + (i * 64)) 1L))
                    done))
           done));
    Stats.get (Htm.stats tm) "aborts"
  in
  check Alcotest.int "modified hardware: disjoint txs never abort" 0 (run_with false);
  check Alcotest.bool "stock hardware: counter conflicts abort" true (run_with true > 0)

let suite =
  [
    Alcotest.test_case "lock table acquire/release" `Quick test_lock_table_acquire_release;
    Alcotest.test_case "lock table stripe mapping" `Quick test_lock_table_stripe_mapping;
  ]
  @ tm_tests "tinystm" (module Tinystm)
  @ tm_tests "tinystm-wb" (module Tinystm_wb)
  @ tm_tests "htm" (module Htm)
  @ [
      Alcotest.test_case "stm: write-through visible to self" `Quick
        test_stm_write_through_visible_to_self;
      Alcotest.test_case "stm: snapshot isolation" `Quick test_stm_snapshot_isolation;
      Alcotest.test_case "stm: abort statistics" `Quick test_stm_abort_stats;
      Alcotest.test_case "tinystm-wb: buffers until commit" `Quick
        test_wb_buffers_until_commit;
      Alcotest.test_case "htm: write buffering" `Quick test_htm_write_buffering;
      Alcotest.test_case "htm: capacity abort falls back to lock" `Quick
        test_htm_capacity_fallback;
      Alcotest.test_case "htm: fallback preserves commit-ID order" `Quick
        test_htm_fallback_preserves_commit_order;
      Alcotest.test_case "htm: conflict dooms reader" `Quick test_htm_conflict_dooms_reader;
      Alcotest.test_case "htm: tx-ID counter conflict ablation" `Quick
        test_htm_tid_conflicts_ablation;
    ]
