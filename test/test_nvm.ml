(* Simulated persistent-memory device tests: persistence semantics, crash
   behaviour, adversarial evictions, traffic accounting. *)

module Mem = Dudetm_nvm.Mem
module Nvm = Dudetm_nvm.Nvm
module Pmem_config = Dudetm_nvm.Pmem_config
module Rng = Dudetm_sim.Rng

let check = Alcotest.check

let device ?(charge_time = false) ?(size = 4096) () =
  Nvm.create ~charge_time Pmem_config.default ~size

let test_store_load () =
  let d = device () in
  Nvm.store_u64 d 0 42L;
  Nvm.store_u64 d 1024 7L;
  check Alcotest.int64 "load sees latest" 42L (Nvm.load_u64 d 0);
  check Alcotest.int64 "load sees latest elsewhere" 7L (Nvm.load_u64 d 1024)

let test_unpersisted_lost_on_crash () =
  let d = device () in
  Nvm.store_u64 d 0 42L;
  Nvm.crash d;
  check Alcotest.int64 "unflushed store is lost" 0L (Nvm.load_u64 d 0)

let test_persisted_survives_crash () =
  let d = device () in
  Nvm.store_u64 d 0 42L;
  Nvm.persist d ~off:0 ~len:8;
  Nvm.store_u64 d 8 99L (* dirty again, not persisted *);
  Nvm.crash d;
  check Alcotest.int64 "persisted store survives" 42L (Nvm.load_u64 d 0);
  check Alcotest.int64 "later unflushed store is lost" 0L (Nvm.load_u64 d 8)

let test_persist_is_range_scoped () =
  let d = device () in
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 2048 2L;
  Nvm.persist d ~off:0 ~len:8;
  Nvm.crash d;
  check Alcotest.int64 "in-range persisted" 1L (Nvm.load_u64 d 0);
  check Alcotest.int64 "out-of-range lost" 0L (Nvm.load_u64 d 2048)

let test_line_granularity () =
  (* Persisting one byte of a line flushes the whole line's content. *)
  let d = device () in
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 8 2L;
  Nvm.persist d ~off:0 ~len:1;
  Nvm.crash d;
  check Alcotest.int64 "same-line neighbour flushed too" 2L (Nvm.load_u64 d 8)

let test_eviction_leaks_dirty_lines () =
  let d = device ~size:65536 () in
  for i = 0 to 99 do
    Nvm.store_u64 d (i * 64) (Int64.of_int i)
  done;
  let rng = Rng.create 5 in
  Nvm.crash ~evict_fraction:1.0 ~rng d;
  (* With fraction 1.0 every dirty line survives the crash. *)
  for i = 0 to 99 do
    check Alcotest.int64 "leaked line content" (Int64.of_int i) (Nvm.load_u64 d (i * 64))
  done

let test_eviction_fraction_zero () =
  let d = device ~size:65536 () in
  for i = 0 to 99 do
    Nvm.store_u64 d (i * 64) 5L
  done;
  Nvm.crash ~evict_fraction:0.0 ~rng:(Rng.create 1) d;
  for i = 0 to 99 do
    check Alcotest.int64 "nothing leaks at fraction 0" 0L (Nvm.load_u64 d (i * 64))
  done

let test_write_bytes_accounting () =
  let d = device () in
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 8 2L;
  Nvm.persist d ~off:0 ~len:16;
  (* Byte-level accounting: 16 payload bytes, not a whole 64-byte line. *)
  check Alcotest.int "persisted payload bytes" 16 (Nvm.persisted_write_bytes d);
  check Alcotest.int "one persist ordering" 1 (Nvm.persist_ops d)

let test_store_bytes_roundtrip () =
  let d = device () in
  let b = Bytes.of_string "hello persistent world" in
  Nvm.store_bytes d 100 b;
  check Alcotest.bytes "load_bytes roundtrip" b (Nvm.load_bytes d 100 (Bytes.length b));
  Nvm.persist d ~off:100 ~len:(Bytes.length b);
  check Alcotest.bool "persisted image matches" true (Nvm.persisted_bytes_equal d 100 b)

let test_persist_ranges_single_ordering () =
  let d = device ~size:65536 () in
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 4096 2L;
  Nvm.store_u64 d 8192 3L;
  Nvm.persist_ranges d [ (0, 8); (4096, 8); (8192, 8) ];
  check Alcotest.int "one ordering for the batch" 1 (Nvm.persist_ops d);
  Nvm.crash d;
  check Alcotest.int64 "batch all persisted (1)" 1L (Nvm.load_u64 d 0);
  check Alcotest.int64 "batch all persisted (2)" 2L (Nvm.load_u64 d 4096);
  check Alcotest.int64 "batch all persisted (3)" 3L (Nvm.load_u64 d 8192)

let test_double_crash_idempotent () =
  let d = device () in
  Nvm.store_u64 d 0 9L;
  Nvm.persist d ~off:0 ~len:8;
  Nvm.crash d;
  Nvm.crash d;
  check Alcotest.int64 "state stable across repeated crashes" 9L (Nvm.load_u64 d 0)

let test_dirty_lines_tracking () =
  let d = device () in
  check Alcotest.int "clean initially" 0 (Nvm.dirty_lines d);
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 8 1L (* same line *);
  Nvm.store_u64 d 64 1L;
  check Alcotest.int "two dirty lines" 2 (Nvm.dirty_lines d);
  Nvm.persist_all d;
  check Alcotest.int "clean after persist_all" 0 (Nvm.dirty_lines d)

(* ---------------------------- media faults ---------------------------- *)

let test_bit_rot () =
  let d = device () in
  Nvm.store_u64 d 0 0L;
  Nvm.persist d ~off:0 ~len:8;
  Nvm.inject_fault d (Nvm.Bit_rot { off = 0; bit = 3 });
  check Alcotest.int64 "persisted bit flipped" 8L (Nvm.persisted_u64 d 0);
  check Alcotest.int64 "clean cached line mirrors the media" 8L (Nvm.load_u64 d 0);
  check Alcotest.int "injection counted" 1 (Nvm.media_faults_injected d)

let test_bit_rot_shadowed_by_dirty_line () =
  let d = device () in
  Nvm.store_u64 d 0 5L (* line dirty: the cache shadows the media *);
  Nvm.inject_fault d (Nvm.Bit_rot { off = 0; bit = 0 });
  check Alcotest.int64 "dirty line shadows media rot" 5L (Nvm.load_u64 d 0);
  Nvm.persist d ~off:0 ~len:8;
  check Alcotest.int64 "writeback overwrites the rotten byte" 5L (Nvm.persisted_u64 d 0)

let test_poison_raises_and_rewrite_repairs () =
  let d = device () in
  Nvm.store_u64 d 0 7L;
  Nvm.persist d ~off:0 ~len:8;
  Nvm.crash d (* every line clean: loads reach the media *);
  Nvm.inject_fault d (Nvm.Poison { line = 0 });
  check Alcotest.bool "is_poisoned" true (Nvm.is_poisoned d ~line:0);
  Alcotest.check_raises "clean-line load raises" (Nvm.Media_error 0) (fun () ->
      ignore (Nvm.load_u64 d 0));
  Alcotest.check_raises "persisted read raises" (Nvm.Media_error 0) (fun () ->
      ignore (Nvm.persisted_u64 d 0));
  let first_byte b off _ = Bytes.get b off in
  Alcotest.check_raises "in-place clean-line view raises" (Nvm.Media_error 0) (fun () ->
      ignore (Nvm.view_latest d 0 64 first_byte));
  Alcotest.check_raises "in-place persisted view raises" (Nvm.Media_error 0) (fun () ->
      ignore (Nvm.view_persisted d 0 64 first_byte));
  (* Rewriting fresh data over the line clears the poison. *)
  Nvm.store_u64 d 0 9L;
  Nvm.persist d ~off:0 ~len:8;
  check Alcotest.bool "flush clears poison" false (Nvm.is_poisoned d ~line:0);
  check Alcotest.int64 "fresh data readable" 9L (Nvm.load_u64 d 0)

let test_poison_survives_crash () =
  let d = device () in
  Nvm.inject_fault d (Nvm.Poison { line = 2 });
  Nvm.crash d;
  check Alcotest.bool "poison survives crash" true (Nvm.is_poisoned d ~line:2);
  check Alcotest.(list int) "poisoned_lines" [ 2 ] (Nvm.poisoned_lines d)

let test_stuck_line_drops_writes () =
  let d = device () in
  Nvm.store_u64 d 64 1L;
  Nvm.persist d ~off:64 ~len:8;
  Nvm.inject_fault d (Nvm.Stuck_line { line = 1 });
  Nvm.store_u64 d 64 2L;
  Nvm.persist d ~off:64 ~len:8;
  check Alcotest.int64 "writeback dropped by stuck line" 1L (Nvm.persisted_u64 d 64);
  check Alcotest.int64 "cached copy reverts on flush (read-after-writeback)" 1L
    (Nvm.load_u64 d 64);
  Nvm.crash d;
  check Alcotest.bool "stuck survives crash" true (Nvm.is_stuck d ~line:1);
  check Alcotest.(list int) "stuck_lines" [ 1 ] (Nvm.stuck_lines d)

let test_background_decay () =
  let d = device ~size:65536 () in
  for i = 0 to 1023 do
    Nvm.store_u64 d (i * 64) 1L
  done;
  Nvm.persist_all d;
  Nvm.set_decay d (Some (0.25, 1_000, 42));
  let before = Nvm.media_faults_injected d in
  Nvm.decay_tick d;
  check Alcotest.bool "decay injects seeded faults" true
    (Nvm.media_faults_injected d > before);
  Nvm.set_decay d None;
  let stable = Nvm.media_faults_injected d in
  Nvm.decay_tick d;
  check Alcotest.int "decay off injects nothing" stable (Nvm.media_faults_injected d)

let test_crash_survivors_recorded () =
  let d = device ~size:65536 () in
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 640 2L;
  Nvm.crash ~evict_fraction:1.0 ~rng:(Rng.create 3) d;
  check Alcotest.(list int) "every dirty line recorded as survivor" [ 0; 10 ]
    (Nvm.last_crash_survivors d);
  Nvm.store_u64 d 128 3L;
  Nvm.crash d;
  check Alcotest.(list int) "fraction-0 crash leaks nothing" [] (Nvm.last_crash_survivors d)

let test_mem_alignment () =
  let m = Mem.create 64 in
  Alcotest.check_raises "unaligned u64 access rejected"
    (Invalid_argument "Mem: unaligned 64-bit access at 0x3") (fun () ->
      ignore (Mem.get_u64 m 3))

let prop_persist_crash_prefix =
  (* Any interleaving of stores/persists followed by a crash leaves the
     persisted image equal to replaying only the persisted prefix. *)
  QCheck2.Test.make ~name:"nvm: crash preserves exactly the persisted stores" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (tup3 (int_range 0 63) (int_range 0 1000) bool))
    (fun ops ->
      let d = device ~size:4096 () in
      let model = Array.make 64 0L in
      let dirty_model = Array.make 64 0L in
      List.iter
        (fun (word, v, do_persist) ->
          let v = Int64.of_int v in
          Nvm.store_u64 d (word * 8) v;
          dirty_model.(word) <- v;
          if do_persist then begin
            (* Persisting a word flushes its whole 64-byte line: words
               word/8*8 .. word/8*8+7. *)
            Nvm.persist d ~off:(word * 8) ~len:8;
            let base = word / 8 * 8 in
            for w = base to base + 7 do
              model.(w) <- dirty_model.(w)
            done
          end)
        ops;
      Nvm.crash d;
      Array.for_all
        (fun w -> Nvm.load_u64 d (w * 8) = model.(w))
        (Array.init 64 (fun i -> i)))

let suite =
  [
    Alcotest.test_case "store/load" `Quick test_store_load;
    Alcotest.test_case "unpersisted data lost on crash" `Quick test_unpersisted_lost_on_crash;
    Alcotest.test_case "persisted data survives crash" `Quick test_persisted_survives_crash;
    Alcotest.test_case "persist is range-scoped" `Quick test_persist_is_range_scoped;
    Alcotest.test_case "flushes are line-granular" `Quick test_line_granularity;
    Alcotest.test_case "adversarial eviction leaks dirty lines" `Quick test_eviction_leaks_dirty_lines;
    Alcotest.test_case "eviction fraction 0 leaks nothing" `Quick test_eviction_fraction_zero;
    Alcotest.test_case "write-byte accounting" `Quick test_write_bytes_accounting;
    Alcotest.test_case "store_bytes roundtrip" `Quick test_store_bytes_roundtrip;
    Alcotest.test_case "persist_ranges is one ordering" `Quick test_persist_ranges_single_ordering;
    Alcotest.test_case "double crash idempotent" `Quick test_double_crash_idempotent;
    Alcotest.test_case "dirty line tracking" `Quick test_dirty_lines_tracking;
    Alcotest.test_case "bit rot flips persisted data" `Quick test_bit_rot;
    Alcotest.test_case "bit rot shadowed by dirty line" `Quick
      test_bit_rot_shadowed_by_dirty_line;
    Alcotest.test_case "poison raises; rewrite repairs" `Quick
      test_poison_raises_and_rewrite_repairs;
    Alcotest.test_case "poison survives crash" `Quick test_poison_survives_crash;
    Alcotest.test_case "stuck line drops writes" `Quick test_stuck_line_drops_writes;
    Alcotest.test_case "seeded background decay" `Quick test_background_decay;
    Alcotest.test_case "crash survivors recorded" `Quick test_crash_survivors_recorded;
    Alcotest.test_case "unaligned access rejected" `Quick test_mem_alignment;
    QCheck_alcotest.to_alcotest prop_persist_crash_prefix;
  ]
