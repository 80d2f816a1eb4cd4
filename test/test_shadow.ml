(* Shadow memory and paging: translation, fault/evict, pinning, the
   touching-ID swap-in gate. *)

module Shadow = Dudetm_shadow.Shadow
module Page_table = Dudetm_shadow.Page_table
module Nvm = Dudetm_nvm.Nvm
module Pmem_config = Dudetm_nvm.Pmem_config
module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats

let check = Alcotest.check

(* ----------------------------- page table ---------------------------- *)

let test_pt_map_unmap () =
  let pt = Page_table.create ~pages:16 ~frames:4 in
  check Alcotest.int "fresh page absent" (-1) (Page_table.frame_index pt 3);
  let f = Option.get (Page_table.free_frame pt) in
  Page_table.map pt ~page:3 ~frame:f;
  check Alcotest.int "mapped" f (Page_table.frame_index pt 3);
  check Alcotest.bool "reverse mapping" true (Page_table.page_of_frame pt f = Some 3);
  check Alcotest.int "resident count" 1 (Page_table.resident pt);
  Page_table.unmap_frame pt f;
  check Alcotest.int "unmapped" (-1) (Page_table.frame_index pt 3);
  check Alcotest.int "resident count back to 0" 0 (Page_table.resident pt)

let test_pt_double_map_rejected () =
  let pt = Page_table.create ~pages:16 ~frames:4 in
  Page_table.map pt ~page:1 ~frame:0;
  Alcotest.check_raises "frame reuse rejected"
    (Invalid_argument "Page_table.map: frame in use") (fun () ->
      Page_table.map pt ~page:2 ~frame:0);
  Alcotest.check_raises "page remap rejected"
    (Invalid_argument "Page_table.map: page already resident") (fun () ->
      Page_table.map pt ~page:1 ~frame:1)

let test_pt_clock_victim_skips () =
  let pt = Page_table.create ~pages:16 ~frames:3 in
  Page_table.map pt ~page:0 ~frame:0;
  Page_table.map pt ~page:1 ~frame:1;
  Page_table.map pt ~page:2 ~frame:2;
  (* Skip frames 0 and 2: the only eligible victim is 1. *)
  (match Page_table.clock_victim pt ~skip:(fun f -> f <> 1) with
  | Some 1 -> ()
  | _ -> Alcotest.fail "victim should be frame 1");
  match Page_table.clock_victim pt ~skip:(fun _ -> true) with
  | None -> ()
  | Some _ -> Alcotest.fail "all skipped should yield None"

(* ------------------------------ shadow ------------------------------- *)

let make_shadow ?(frames = 4) ?(mode = Shadow.Software) ?(applied = ref max_int) () =
  let nvm = Nvm.create ~charge_time:false Pmem_config.default ~size:65536 in
  let cfg = Shadow.default_config mode ~frames in
  (Shadow.create cfg ~nvm ~applied_id:(fun () -> !applied), nvm, applied)

let test_shadow_reads_nvm_content () =
  let sh, nvm, _ = make_shadow () in
  Nvm.store_u64 nvm 4096 77L;
  check Alcotest.int64 "fault-in copies NVM" 77L (Shadow.load_u64 sh 4096);
  check Alcotest.int "one fault" 1 (Stats.get (Shadow.stats sh) "faults")

let test_shadow_store_never_reaches_nvm () =
  let sh, nvm, _ = make_shadow () in
  Shadow.store_u64 sh 0 123L;
  check Alcotest.int64 "shadow sees the store" 123L (Shadow.load_u64 sh 0);
  check Alcotest.int64 "NVM never does" 0L (Nvm.load_u64 nvm 0)

let test_shadow_eviction_discards () =
  let sh, _, _ = make_shadow ~frames:2 () in
  Shadow.store_u64 sh 0 1L;
  (* Touch enough distinct pages to evict page 0. *)
  for p = 1 to 4 do
    ignore (Shadow.load_u64 sh (p * 4096))
  done;
  check Alcotest.bool "evictions happened" true (Stats.get (Shadow.stats sh) "evictions" > 0);
  (* Page 0 refaults from NVM: the dirty shadow data is gone (by design —
     its updates live in redo logs). *)
  check Alcotest.int64 "refault reads NVM, not the old dirty frame" 0L (Shadow.load_u64 sh 0)

let test_shadow_pin_prevents_eviction () =
  let sh, _, _ = make_shadow ~frames:2 () in
  Shadow.store_u64 sh 0 9L;
  Shadow.pin sh 0;
  ignore
    (Sched.run (fun () ->
         for p = 1 to 6 do
           ignore (Shadow.load_u64 sh (p * 4096))
         done));
  check Alcotest.int64 "pinned page survives pressure" 9L (Shadow.load_u64 sh 0);
  Shadow.unpin sh 0;
  check Alcotest.int "pins balanced" 0 (Shadow.pinned_pages sh)

let test_shadow_all_pinned_waits () =
  (* With every frame pinned, a new fault must wait until an unpin. *)
  let sh, _, _ = make_shadow ~frames:2 () in
  let faulted = ref false in
  ignore
    (Sched.run (fun () ->
         Shadow.pin sh 0;
         Shadow.pin sh 4096;
         ignore
           (Sched.spawn "faulter" (fun () ->
                ignore (Shadow.load_u64 sh (5 * 4096));
                faulted := true));
         ignore
           (Sched.spawn "unpinner" (fun () ->
                Sched.advance 50_000;
                Shadow.unpin sh 0))));
  check Alcotest.bool "fault completed after unpin" true !faulted

let test_touching_gate () =
  (* A page whose touching ID is ahead of Reproduce must not swap in until
     the watermark catches up. *)
  let applied = ref 0 in
  let sh, nvm, _ = make_shadow ~frames:2 ~applied () in
  ignore (Shadow.load_u64 sh 0);
  Shadow.set_touching sh ~page:0 ~tid:5;
  (* Evict page 0 by touching other pages. *)
  for p = 1 to 4 do
    ignore (Shadow.load_u64 sh (p * 4096))
  done;
  Nvm.store_u64 nvm 0 42L (* Reproduce applies the write... *);
  let seen = ref 0L in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "reader" (fun () -> seen := Shadow.load_u64 sh 0));
         ignore
           (Sched.spawn "reproduce" (fun () ->
                Sched.advance 10_000;
                applied := 5 (* ...and then announces it *)))));
  check Alcotest.bool "swap-in waited for reproduce" true
    (Stats.get (Shadow.stats sh) "swapin_waits" > 0);
  check Alcotest.int64 "reader saw the reproduced value" 42L !seen

let test_touching_monotone () =
  let sh, _, _ = make_shadow () in
  Shadow.set_touching sh ~page:1 ~tid:10;
  Shadow.set_touching sh ~page:1 ~tid:7;
  check Alcotest.int "touching never regresses" 10 (Shadow.touching sh ~page:1)

let test_shadow_clear () =
  let sh, _, _ = make_shadow () in
  Shadow.store_u64 sh 0 5L;
  Shadow.set_touching sh ~page:0 ~tid:3;
  Shadow.clear sh;
  check Alcotest.int "touching reset" 0 (Shadow.touching sh ~page:0);
  check Alcotest.int64 "contents reloaded from NVM" 0L (Shadow.load_u64 sh 0)

let test_hardware_shootdown_accounting () =
  let sh, _, _ = make_shadow ~frames:2 ~mode:Shadow.Hardware () in
  ignore
    (Sched.run (fun () ->
         for p = 0 to 7 do
           ignore (Shadow.load_u64 sh (p * 4096))
         done));
  let s = Shadow.stats sh in
  check Alcotest.bool "shootdowns accompany hardware evictions" true
    (Stats.get s "shootdowns" > 0 && Stats.get s "shootdowns" = Stats.get s "evictions")

let test_concurrent_fault_single_mapping () =
  (* Many threads faulting the same page concurrently must agree on one
     frame and read consistent data. *)
  let sh, nvm, _ = make_shadow ~frames:4 ~mode:Shadow.Hardware () in
  Nvm.store_u64 nvm 8192 17L;
  let results = Array.make 6 0L in
  ignore
    (Sched.run (fun () ->
         for t = 0 to 5 do
           ignore
             (Sched.spawn (string_of_int t) (fun () -> results.(t) <- Shadow.load_u64 sh 8192))
         done));
  Array.iter (fun v -> check Alcotest.int64 "all threads read the same value" 17L v) results

let suite =
  [
    Alcotest.test_case "page table map/unmap" `Quick test_pt_map_unmap;
    Alcotest.test_case "page table rejects double mapping" `Quick test_pt_double_map_rejected;
    Alcotest.test_case "clock victim skips pinned" `Quick test_pt_clock_victim_skips;
    Alcotest.test_case "fault-in copies NVM content" `Quick test_shadow_reads_nvm_content;
    Alcotest.test_case "shadow stores never reach NVM" `Quick test_shadow_store_never_reaches_nvm;
    Alcotest.test_case "eviction discards dirty pages" `Quick test_shadow_eviction_discards;
    Alcotest.test_case "pin prevents eviction" `Quick test_shadow_pin_prevents_eviction;
    Alcotest.test_case "all-pinned fault waits for unpin" `Quick test_shadow_all_pinned_waits;
    Alcotest.test_case "touching-ID gate blocks stale swap-in" `Quick test_touching_gate;
    Alcotest.test_case "touching IDs are monotone" `Quick test_touching_monotone;
    Alcotest.test_case "clear resets everything" `Quick test_shadow_clear;
    Alcotest.test_case "hardware evictions shoot down TLBs" `Quick
      test_hardware_shootdown_accounting;
    Alcotest.test_case "concurrent faults agree on one mapping" `Quick
      test_concurrent_fault_single_mapping;
  ]
