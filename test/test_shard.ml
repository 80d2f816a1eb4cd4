(* Sharded DudeTM tests: single-shard and cross-shard transactions, the
   vector watermark, cross-shard all-or-nothing crash recovery, and the
   recovery vote. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Sh = Dudetm_shard.Shard.Make (Dudetm_tm.Tinystm)

let check = Alcotest.check

exception Crashed

let small_cfg ?(nthreads = 3) ?(combine = false) ?(fault = Config.No_fault) () =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads;
    vlog_capacity = 256;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    combine;
    checkpoint_records = 2;
    seed = 7;
    fault;
  }

(* Word layout inside every shard's root block:
   0        balance (cross-shard transfers preserve the global sum)
   8        single-shard local counter
   16+8*p   pairwise stamp: the latest transfer between this shard and
            partner [p].  Both sides of a transfer write the same stamp, so
            after any crash + recovery the two sides of every pair must
            agree — the all-or-nothing oracle. *)
let balance_off = 0
let local_off = 8
let pair_off p = 16 + (8 * p)

let initial_balance = 1_000L

let seed_shards sh nshards =
  for s = 0 to nshards - 1 do
    ignore
      (Sh.atomically sh ~thread:0 ~shards:[ s ] (fun tx ->
           Sh.write tx ~shard:s balance_off initial_balance))
  done

let transfer sh ~thread ~a ~b ~stamp amt =
  Sh.atomically sh ~thread ~shards:[ a; b ] (fun tx ->
      let ba = Sh.read tx ~shard:a balance_off in
      let bb = Sh.read tx ~shard:b balance_off in
      Sh.write tx ~shard:a balance_off (Int64.sub ba amt);
      Sh.write tx ~shard:b balance_off (Int64.add bb amt);
      Sh.write tx ~shard:a (pair_off b) (Int64.of_int stamp);
      Sh.write tx ~shard:b (pair_off a) (Int64.of_int stamp))

let bump sh ~thread s =
  Sh.atomically sh ~thread ~shards:[ s ] (fun tx ->
      Sh.write tx ~shard:s local_off (Int64.add (Sh.read tx ~shard:s local_off) 1L))

(* The all-or-nothing + sum oracle on a recovered (or drained) system.
   Every transfer preserves the sum among shards whose seed is durable, and
   a shard's seed is tid 1 on that shard — durable whenever anything later
   on the shard is (contiguity).  Both sides of every transfer write the
   same pairwise stamp, so the sides must agree. *)
let verify_state ~nshards sh =
  for a = 0 to nshards - 1 do
    for b = a + 1 to nshards - 1 do
      check Alcotest.int64
        (Printf.sprintf "pair stamp %d<->%d" a b)
        (Sh.Engine.heap_read_u64 (Sh.engine sh a) (pair_off b))
        (Sh.Engine.heap_read_u64 (Sh.engine sh b) (pair_off a))
    done
  done;
  let sum = ref 0L and seeded = ref 0 in
  for s = 0 to nshards - 1 do
    sum := Int64.add !sum (Sh.Engine.heap_read_u64 (Sh.engine sh s) balance_off);
    if Sh.Engine.durable_id (Sh.engine sh s) >= 1 then incr seeded
  done;
  check Alcotest.int64 "sum = seeds still standing"
    (Int64.mul initial_balance (Int64.of_int !seeded))
    !sum

(* ------------------------------------------------------------------ *)

let test_basic_commit () =
  let nshards = 3 in
  let sh = Sh.create ~nshards (small_cfg ()) in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         seed_shards sh nshards;
         for k = 1 to 20 do
           let a = k mod nshards in
           let b = (k + 1) mod nshards in
           (match transfer sh ~thread:(k mod 3) ~a ~b ~stamp:k 5L with
           | Some (_, Sh.Ack_cross { gtid }) -> check Alcotest.int "dense gtids" k gtid
           | _ -> Alcotest.fail "transfer should commit with a cross ack");
           ignore (bump sh ~thread:(k mod 3) (k mod nshards))
         done;
         Sh.stop sh));
  verify_state ~nshards sh;
  check Alcotest.int "frontier covers all cross txs" 20 (Sh.global_frontier sh);
  let dv = Sh.durable_vector sh and ev = Sh.effective_vector sh in
  Array.iteri (fun s d -> check Alcotest.int "eff = durable when drained" d ev.(s)) dv;
  check Alcotest.int "cross txs counted" 20
    (Dudetm_sim.Stats.get (Sh.stats sh) "cross_txs")

let test_wait_durable_cross () =
  let nshards = 2 in
  let sh = Sh.create ~nshards (small_cfg ()) in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         seed_shards sh nshards;
         (match transfer sh ~thread:0 ~a:0 ~b:1 ~stamp:1 7L with
         | Some (_, (Sh.Ack_cross { gtid } as ack)) ->
           Sh.wait_durable sh ack;
           Alcotest.(check bool)
             "frontier reached the acked gtid" true
             (Sh.global_frontier sh >= gtid)
         | _ -> Alcotest.fail "expected a cross ack");
         Sh.stop sh))

let test_single_shard_ack_and_abort () =
  let sh = Sh.create ~nshards:2 (small_cfg ()) in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         (match bump sh ~thread:0 1 with
         | Some (_, (Sh.Ack_local { shard = 1; _ } as ack)) -> Sh.wait_durable sh ack
         | _ -> Alcotest.fail "single-shard tx should yield a local ack");
         (match
            Sh.atomically sh ~thread:0 ~shards:[ 0 ] (fun tx ->
                Sh.read tx ~shard:0 balance_off)
          with
         | Some (0L, Sh.Ack_read_only) -> ()
         | _ -> Alcotest.fail "read-only tx should yield a read-only ack");
         (* abort rolls back every open sub-transaction *)
         (match
            Sh.atomically sh ~thread:0 ~shards:[ 0; 1 ] (fun tx ->
                Sh.write tx ~shard:0 balance_off 99L;
                Sh.write tx ~shard:1 balance_off 99L;
                Sh.abort tx)
          with
         | None -> ()
         | Some _ -> Alcotest.fail "aborted tx should return None");
         Sh.stop sh));
  check Alcotest.int64 "abort rolled back shard 0" 0L
    (Sh.Engine.heap_read_u64 (Sh.engine sh 0) balance_off);
  check Alcotest.int64 "abort rolled back shard 1" 0L
    (Sh.Engine.heap_read_u64 (Sh.engine sh 1) balance_off);
  check Alcotest.int "no gtid drawn for aborts/single/readonly" 0 (Sh.global_frontier sh)

let test_undeclared_shard_rejected () =
  let sh = Sh.create ~nshards:2 (small_cfg ()) in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         (try
            ignore
              (Sh.atomically sh ~thread:0 ~shards:[ 0 ] (fun tx ->
                   Sh.write tx ~shard:1 balance_off 1L));
            Alcotest.fail "undeclared shard should be rejected"
          with Invalid_argument _ -> ());
         Sh.stop sh))

(* Run a mixed workload and cut power at persist boundary [crash_at]
   (counted across all shard devices); [None] runs to a clean stop.
   Returns the instance, the boundary count and whether it crashed. *)
let run_until_crash ?(fault = Config.No_fault) ~nshards ~txs ~crash_at () =
  let cfg = small_cfg ~fault () in
  let sh = Sh.create ~nshards cfg in
  let sites = ref 0 in
  let hook () =
    incr sites;
    match crash_at with Some k when !sites = k -> raise Crashed | _ -> ()
  in
  let disarm () =
    for s = 0 to nshards - 1 do
      Nvm.set_persist_hook (Sh.nvm sh s) None
    done
  in
  let crashed = ref false in
  (try
     ignore
       (Sched.run (fun () ->
            Sh.start sh;
            seed_shards sh nshards;
            for s = 0 to nshards - 1 do
              Nvm.set_persist_hook (Sh.nvm sh s) (Some hook)
            done;
            for k = 1 to txs do
              let a = k mod nshards in
              let b = (k + 1) mod nshards in
              ignore (transfer sh ~thread:(k mod 3) ~a ~b ~stamp:k 5L);
              ignore (bump sh ~thread:(k mod 3) (k mod nshards))
            done;
            disarm ();
            Sh.stop sh))
   with Crashed -> crashed := true);
  disarm ();
  if !crashed then
    for s = 0 to nshards - 1 do
      Nvm.crash (Sh.nvm sh s)
    done;
  (sh, !sites, !crashed)

let test_crash_all_or_nothing () =
  let nshards = 3 in
  let _, total, crashed = run_until_crash ~nshards ~txs:12 ~crash_at:None () in
  check Alcotest.bool "clean run does not crash" false crashed;
  Alcotest.(check bool) "clean run has persist boundaries" true (total > 0);
  let rng = Rng.create 99 in
  for _ = 1 to 16 do
    let k = 1 + Rng.int rng total in
    let sh, _, crashed = run_until_crash ~nshards ~txs:12 ~crash_at:(Some k) () in
    if crashed then begin
      let sh2, _rec = Sh.attach ~nshards (Sh.config sh) (Array.init nshards (Sh.nvm sh)) in
      verify_state ~nshards sh2
    end
  done

(* A recovered system keeps working: attach, run more transfers, stop. *)
let test_recover_and_continue () =
  let nshards = 3 in
  let _, total, _ = run_until_crash ~nshards ~txs:12 ~crash_at:None () in
  let sh, _, crashed = run_until_crash ~nshards ~txs:12 ~crash_at:(Some (total / 2)) () in
  Alcotest.(check bool) "crashed mid-run" true crashed;
  let sh2, _ = Sh.attach ~nshards (Sh.config sh) (Array.init nshards (Sh.nvm sh)) in
  let before = Sh.global_frontier sh2 in
  ignore
    (Sched.run (fun () ->
         Sh.start sh2;
         for k = 1 to 6 do
           let a = k mod nshards in
           let b = (k + 1) mod nshards in
           ignore (transfer sh2 ~thread:(k mod 3) ~a ~b ~stamp:(1000 + k) 1L)
         done;
         Sh.stop sh2));
  verify_state ~nshards sh2;
  check Alcotest.int "fresh gtids continue after recovery" (before + 6)
    (Sh.global_frontier sh2)

(* ------------------------------------------------------------------ *)
(* The vector watermark against the registry fold it replaced          *)
(* ------------------------------------------------------------------ *)

module Frontier = Dudetm_shard.Frontier

type model_set = M_pending | M_sealed of (int * int) list

(* The oracle keeps every set ever drawn (a pruned set is durable, so it
   never holds GF back) and recomputes GF and each shard's effective ID
   from scratch: GF by a scan from gtid 1, the effective ID by folding the
   whole registry, as the shard layer did before the per-shard lists. *)
let oracle_frontier model ~last durable =
  let rec go g =
    if g >= last then g
    else
      match Hashtbl.find model (g + 1) with
      | M_sealed frags when List.for_all (fun (s, tid) -> durable.(s) >= tid) frags -> go (g + 1)
      | _ -> g
  in
  go 0

let oracle_effective model ~gf durable s =
  Hashtbl.fold
    (fun g v acc ->
      match v with
      | M_pending -> acc
      | M_sealed frags ->
        if g > gf then
          List.fold_left (fun acc (s', tid) -> if s' = s then min acc (tid - 1) else acc) acc frags
        else acc)
    model durable.(s)

(* Random registries with Pending and Sealed sets on both sides of GF:
   each step draws a set, seals a random pending one (fragments on a random
   subset of 4 shards, at tids around the shard's durable ID), raises a
   shard's durable ID, or publishes GF (pruning below it).  After every
   step the per-shard lists must give the oracle's GF and effective IDs. *)
let prop_watermark_matches_fold =
  let nshards = 4 in
  QCheck2.Test.make ~name:"shard: per-shard fragment lists match the registry fold" ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) (tup3 (int_range 0 3) (int_range 0 15) (int_range 0 15)))
    (fun ops ->
      let durable = Array.make nshards 0 in
      let f = Frontier.create ~nshards ~durable:(fun s -> durable.(s)) in
      let model = Hashtbl.create 16 in
      let pending = ref [] in
      List.iter
        (fun (kind, x, y) ->
          (match kind with
          | 0 ->
            let g = Frontier.draw f in
            Hashtbl.replace model g M_pending;
            pending := !pending @ [ g ]
          | 1 when !pending <> [] ->
            let g = List.nth !pending (x mod List.length !pending) in
            pending := List.filter (( <> ) g) !pending;
            let frags =
              List.filter_map
                (fun s ->
                  if (y + 1) land (1 lsl s) <> 0 then Some (s, durable.(s) - 1 + ((x + s) mod 4))
                  else None)
                (List.init nshards Fun.id)
            in
            Frontier.seal f g frags;
            Hashtbl.replace model g (M_sealed frags)
          | 2 -> durable.(x mod nshards) <- durable.(x mod nshards) + (y mod 3)
          | _ -> Frontier.advance f);
          let gf = oracle_frontier model ~last:(Frontier.last f) durable in
          if Frontier.pure_frontier f <> gf then
            QCheck2.Test.fail_reportf "frontier %d, oracle %d" (Frontier.pure_frontier f) gf;
          for s = 0 to nshards - 1 do
            let want = oracle_effective model ~gf durable s in
            if Frontier.effective f s <> want then
              QCheck2.Test.fail_reportf "shard %d: effective %d, registry fold %d" s
                (Frontier.effective f s) want
          done)
        ops;
      (* The readers are polled by wait predicates: they must not allocate. *)
      let before = Gc.minor_words () in
      for s = 0 to nshards - 1 do
        ignore (Frontier.effective f s);
        ignore (Frontier.is_durable_upto f (Frontier.last f))
      done;
      let words = Gc.minor_words () -. before in
      if words > 0.0 then QCheck2.Test.fail_reportf "pure readers allocated %.0f words" words;
      true)

(* The acknowledgeable vector never moves backwards while transfers and
   local bumps on 4 shards run under a monitor that samples it. *)
let prop_effective_vector_monotone =
  let nshards = 4 in
  QCheck2.Test.make ~name:"shard: effective vector never decreases" ~count:4
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let sh = Sh.create ~nshards (small_cfg ()) in
      let samples = ref 0 in
      ignore
        (Sched.run (fun () ->
             Sh.start sh;
             seed_shards sh nshards;
             let running = ref 3 in
             for w = 0 to 2 do
               ignore
                 (Sched.spawn (Printf.sprintf "xfer%d" w) (fun () ->
                      let rng = Rng.create ((seed * 3) + w) in
                      for k = 1 to 15 do
                        let a = Rng.int rng nshards in
                        let b = (a + 1 + Rng.int rng (nshards - 1)) mod nshards in
                        if Rng.bool rng then
                          ignore (transfer sh ~thread:w ~a ~b ~stamp:((100 * w) + k) 1L)
                        else ignore (bump sh ~thread:w a);
                        Sched.advance (Rng.int rng 400)
                      done;
                      decr running))
             done;
             let prev = ref (Sh.effective_vector sh) in
             while !running > 0 do
               Sched.advance 150;
               let cur = Sh.effective_vector sh in
               Array.iteri
                 (fun s c ->
                   if c < !prev.(s) then
                     QCheck2.Test.fail_reportf "shard %d: effective %d after %d" s c !prev.(s))
                 cur;
               incr samples;
               prev := cur
             done;
             Sh.stop sh));
      !samples > 0)

(* A combined record replays as one item, so the replay gate and the
   recovery vote act only at record boundaries: every record that carries
   a cross-shard fragment must hold that one transaction and nothing
   else.  Three concurrent workers mix fragments and single-shard bumps
   into the same combined groups; every record each shard appends to its
   ring is decoded as the Persist step publishes it. *)
let test_combined_fragment_sealed_alone () =
  let nshards = 3 and workers = 3 in
  let sh = Sh.create ~nshards { (small_cfg ~combine:true ()) with Config.group_size = 4 } in
  let records = ref [] in
  for s = 0 to nshards - 1 do
    Sh.Engine.set_ship_hook (Sh.engine sh s)
      (Some (fun r -> records := r.Dudetm_core.Dudetm.ship_payload :: !records))
  done;
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         seed_shards sh nshards;
         let finished = ref 0 in
         for w = 0 to workers - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "worker-%d" w) (fun () ->
                  for j = 1 to 10 do
                    let k = (w * 10) + j in
                    let a = k mod nshards and b = (k + 1) mod nshards in
                    ignore (bump sh ~thread:w b);
                    ignore (transfer sh ~thread:w ~a ~b ~stamp:k 5L)
                  done;
                  incr finished))
         done;
         Sched.wait_until (fun () -> !finished = workers);
         Sh.stop sh));
  verify_state ~nshards sh;
  let module E = Dudetm_log.Log_entry in
  let fragments = ref 0 in
  List.iter
    (fun payload ->
      let entries = E.decode_payload payload in
      if List.exists (function E.Cross _ -> true | _ -> false) entries then begin
        incr fragments;
        check Alcotest.int "transactions in a fragment's record" 1
          (List.length (List.filter (function E.Tx_end _ -> true | _ -> false) entries))
      end)
    !records;
  check Alcotest.int "every fragment sealed" (2 * workers * 10) !fragments

let suite =
  [
    Alcotest.test_case "basic cross-shard commit" `Quick test_basic_commit;
    Alcotest.test_case "cross ack wait_durable" `Quick test_wait_durable_cross;
    Alcotest.test_case "acks and aborts" `Quick test_single_shard_ack_and_abort;
    Alcotest.test_case "undeclared shard rejected" `Quick test_undeclared_shard_rejected;
    Alcotest.test_case "crash all-or-nothing" `Slow test_crash_all_or_nothing;
    Alcotest.test_case "recover and continue" `Slow test_recover_and_continue;
    Alcotest.test_case "combined: a fragment is sealed alone" `Quick
      test_combined_fragment_sealed_alone;
    QCheck_alcotest.to_alcotest prop_watermark_matches_fold;
    QCheck_alcotest.to_alcotest prop_effective_vector_monotone;
  ]
