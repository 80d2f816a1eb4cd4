(* lib/replica tests: wire-frame codec (roundtrip, CRC rejection of any
   single-bit flip, truncation), link fault injection (deterministic
   seeded drop/duplicate/reorder/delay), quorum math, K=1 degeneration to
   the unreplicated engine, end-to-end replication over hostile links
   (dedup by batch sequence, CRC rejection, in-order apply, retransmit
   with capped backoff), promotion truncation to the quorum prefix,
   bounded ack waits with explicit degraded mode and the [Replica_lag]
   diagnostic, replica trace spans / per-link byte accounting, and the
   failover campaign (clean pass + seeded Skip_quorum_gate mutant
   caught). *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Wire = Dudetm_log.Wire
module Plog = Dudetm_log.Plog
module Trace = Dudetm_trace.Trace
module Check = Dudetm_check.Check
module Campaign = Dudetm_check.Campaign
module Link = Dudetm_replica.Link
module Rep = Dudetm_replica.Replica.Make (Dudetm_tm.Tinystm)
module E = Rep.Engine

let check = Alcotest.check

(* Small cluster layout, same shape as the checker's engine configs. *)
let cfg ?(nthreads = 2) ?(ack_timeout = 2_000_000) ?(fault = Config.No_fault) () =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    root_size = 4096;
    nthreads;
    vlog_capacity = 256;
    plog_size = 1 lsl 14;
    meta_size = 8192;
    group_size = 4;
    combine = true;
    compress = true;
    persist_threads = 1;
    reproduce_batch = 4;
    checkpoint_records = 2;
    seed = 7;
    fault;
    ack_timeout;
  }

(* Short links so retransmit/backoff cycles stay small in tests. *)
let fast_link = { Link.default_config with Link.latency = 2_000 }

let rcfg ?(link = fast_link) k = { (Rep.default_config ~nreplicas:k ()) with Rep.link }

(* Counter body: transaction i writes the root to i and stamps slot
   (i mod 4), so the durable state is a function of the commit count. *)
let slot i = 8 + (8 * (i mod 4))

let body tx =
  let c1 = 1 + Int64.to_int (E.read tx 0) in
  E.write tx (slot c1) (Int64.of_int c1);
  E.write tx 0 (Int64.of_int c1)

let spawn_workers prim ~nthreads ~txs ~committed ~done_workers =
  for th = 0 to nthreads - 1 do
    ignore
      (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
           for _ = 1 to txs do
             match E.atomically prim ~thread:th body with
             | Some (_, tid) when tid > 0 -> committed := max !committed tid
             | _ -> ()
           done;
           incr done_workers))
  done

(* ------------------------------- wire ---------------------------------- *)

let test_wire_roundtrip () =
  let payload = Bytes.of_string "redo-record-payload-bytes" in
  (match Wire.decode (Wire.encode (Wire.Batch { seq = 5; lo = 3; hi = 9; acked = 2; payload })) with
  | Some (Wire.Batch f) ->
    check Alcotest.int "seq" 5 f.seq;
    check Alcotest.int "lo" 3 f.lo;
    check Alcotest.int "hi" 9 f.hi;
    check Alcotest.int "acked" 2 f.acked;
    check Alcotest.string "payload" (Bytes.to_string payload) (Bytes.to_string f.payload)
  | _ -> Alcotest.fail "batch frame did not survive the roundtrip");
  (match Wire.decode (Wire.encode (Wire.Ack { seq = 41; durable = 40 })) with
  | Some (Wire.Ack a) ->
    check Alcotest.int "ack seq" 41 a.seq;
    check Alcotest.int "ack durable" 40 a.durable
  | _ -> Alcotest.fail "ack frame did not survive the roundtrip");
  match Wire.decode (Wire.encode (Wire.Watermark { acked = 17 })) with
  | Some (Wire.Watermark w) -> check Alcotest.int "watermark" 17 w.acked
  | _ -> Alcotest.fail "watermark frame did not survive the roundtrip"

let test_wire_crc_rejects_any_flip () =
  let b = Wire.encode (Wire.Batch { seq = 1; lo = 1; hi = 4; acked = 0; payload = Bytes.of_string "payload" }) in
  for i = 0 to Bytes.length b - 1 do
    for bit = 0 to 7 do
      let c = Bytes.copy b in
      Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor (1 lsl bit)));
      if Wire.decode c <> None then
        Alcotest.failf "flip of byte %d bit %d went undetected" i bit
    done
  done;
  check Alcotest.bool "truncated frame rejected" true
    (Wire.decode (Bytes.sub b 0 (Bytes.length b - 1)) = None);
  check Alcotest.bool "extended frame rejected" true
    (Wire.decode (Bytes.cat b (Bytes.make 1 '\000')) = None);
  check Alcotest.bool "tiny frame rejected" true (Wire.decode (Bytes.make 3 'x') = None)

(* ------------------------------- link ----------------------------------- *)

let link_fault_run () =
  let faults =
    { Link.drop = 0.2; duplicate = 0.2; reorder = 0.3; delay = 0.1; delay_cycles = 5_000;
      corrupt = 0.0 }
  in
  let l =
    Link.create ~label:"test-link"
      { Link.latency = 1_000; bandwidth_gbps = 10.0; faults; seed = 42 }
  in
  let received = ref [] in
  ignore
    (Sched.run (fun () ->
         for i = 1 to 200 do
           Link.send l (Bytes.make 32 (Char.chr (i land 0xff)))
         done;
         while Link.in_flight l > 0 do
           match Link.recv l with
           | Some b -> received := Bytes.get b 0 :: !received
           | None -> Sched.advance 500
         done));
  let st = Link.stats l in
  let g k = Stats.get st k in
  (List.rev !received, g "frames_sent", g "frames_dropped", g "frames_duplicated",
   g "frames_delivered", g "frames_reordered", g "frames_delayed")

let test_link_faults_deterministic () =
  let recv1, sent, dropped, duplicated, delivered, reordered, delayed = link_fault_run () in
  check Alcotest.int "every send counted" 200 sent;
  check Alcotest.bool "some frames dropped" true (dropped > 0);
  check Alcotest.bool "some frames duplicated" true (duplicated > 0);
  check Alcotest.bool "some frames reordered" true (reordered > 0);
  check Alcotest.bool "some frames delayed" true (delayed > 0);
  check Alcotest.int "delivered = sent - dropped + duplicated"
    (sent - dropped + duplicated) delivered;
  (* Same seed, same schedule: the faulted stream replays exactly. *)
  let recv2, _, _, _, _, _, _ = link_fault_run () in
  check Alcotest.bool "fault stream is deterministic" true (recv1 = recv2)

let test_link_partition_drops () =
  let l = Link.create ~label:"p" fast_link in
  ignore
    (Sched.run (fun () ->
         Link.set_partitioned l true;
         Link.send l (Bytes.make 8 'x');
         check Alcotest.int "partitioned send never queues" 0 (Link.in_flight l);
         Link.set_partitioned l false;
         Link.send l (Bytes.make 8 'y');
         check Alcotest.int "healed link queues" 1 (Link.in_flight l)));
  check Alcotest.int "partition drop counted" 1
    (Stats.get (Link.stats l) "frames_dropped_partition")

(* ------------------------------ quorum math ----------------------------- *)

let test_quorum_math () =
  List.iter
    (fun (k, q) -> check Alcotest.int (Printf.sprintf "quorum for K=%d" k) q (Rep.quorum_needed ~nreplicas:k))
    [ (1, 1); (2, 2); (3, 2); (4, 3); (5, 3) ]

let test_create_validates () =
  check Alcotest.bool "combine required" true
    (try
       ignore (Rep.create { (cfg ()) with Config.combine = false; compress = false });
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "ack_timeout validated" true
    (try
       ignore (Config.validate { (cfg ()) with Config.ack_timeout = 0 });
       false
     with Config.Invalid_config _ -> true)

(* --------------------- K=1 degenerates to PR 6 -------------------------- *)

let test_k1_matches_unreplicated () =
  let c1 = cfg ~nthreads:1 () in
  let txs = 12 in
  (* Unreplicated control. *)
  let plain = E.create c1 in
  ignore
    (Sched.run (fun () ->
         E.start plain;
         let committed = ref 0 and done_workers = ref 0 in
         spawn_workers plain ~nthreads:1 ~txs ~committed ~done_workers;
         Sched.wait_until ~label:"plain done" (fun () -> !done_workers = 1);
         E.drain plain;
         E.stop plain));
  (* K=1 cluster: every ack must be primary-local durability, immediately. *)
  let c = Rep.create ~rcfg:(rcfg 1) c1 in
  let prim = Rep.primary c in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         for i = 1 to txs do
           match E.atomically prim ~thread:0 body with
           | Some (_, tid) when tid > 0 ->
             (match Rep.wait_acked c tid with
             | Rep.Quorum -> ()
             | Rep.Degraded_quorum d -> Alcotest.failf "K=1 ack degraded at tx %d: %s" i d);
             check Alcotest.int "K=1 watermark is the primary durable id"
               (E.durable_id prim) (Rep.acked c)
           | _ -> ()
         done;
         (match Rep.drain c with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "K=1 drain degraded: %s" d);
         Rep.sync_followers c;
         Rep.stop c));
  check Alcotest.int "same durable id as the unreplicated engine"
    (E.durable_id plain) (E.durable_id prim);
  for a = 0 to 4 do
    check Alcotest.int
      (Printf.sprintf "heap word %d matches the unreplicated engine" a)
      (Int64.to_int (E.heap_read_u64 plain (8 * a)))
      (Int64.to_int (E.heap_read_u64 prim (8 * a)))
  done;
  (* The follower replayed the same prefix. *)
  let r0 = Rep.replica c 0 in
  check Alcotest.int "follower sealed the full prefix" (E.durable_id prim) (E.durable_id r0);
  check Alcotest.int "follower replayed the full prefix" (E.durable_id prim) (E.applied_id r0)

(* The follower ring is a byte-identical prefix of the primary's ring 0:
   with clean links and no recycling, every record a follower holds has
   the same sequence number and payload as the primary's record there. *)
let test_follower_ring_byte_identical () =
  let c0 = { (cfg ()) with Config.checkpoint_records = 1_000; plog_size = 1 lsl 16 } in
  let c = Rep.create ~rcfg:(rcfg 3) c0 in
  let prim = Rep.primary c in
  let ring eng =
    let _, records =
      Plog.attach (E.nvm eng) ~base:(Config.plog_base c0 0) ~size:c0.Config.plog_size
    in
    List.map (fun r -> (r.Plog.seq, Bytes.to_string r.Plog.payload)) records
  in
  let rings = ref [||] in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         let committed = ref 0 and done_workers = ref 0 in
         spawn_workers prim ~nthreads:2 ~txs:12 ~committed ~done_workers;
         Sched.wait_until ~label:"workers done" (fun () -> !done_workers = 2);
         ignore (Rep.drain c);
         Rep.sync_followers c;
         (* Read the rings before [stop]: its final checkpoint recycles them. *)
         rings :=
           Array.init (Rep.nreplicas c + 1) (fun i ->
               ring (if i = 0 then prim else Rep.replica c (i - 1)));
         Rep.stop c));
  let primary = !rings.(0) in
  check Alcotest.bool "primary ring holds several records" true (List.length primary > 1);
  for i = 1 to Rep.nreplicas c do
    let follower = !rings.(i) in
    check Alcotest.int
      (Printf.sprintf "replica %d holds every record" (i - 1))
      (List.length primary) (List.length follower);
    List.iter
      (fun (seq, payload) ->
        match List.assoc_opt seq primary with
        | Some p ->
          check Alcotest.string
            (Printf.sprintf "replica %d record %d is byte-identical" (i - 1) seq)
            p payload
        | None -> Alcotest.failf "replica %d holds record %d the primary lacks" (i - 1) seq)
      follower
  done

(* ------------------- hostile links, end to end -------------------------- *)

let test_faulty_links_end_to_end () =
  let faults =
    { Link.drop = 0.15; duplicate = 0.15; reorder = 0.15; delay = 0.05;
      delay_cycles = 10_000; corrupt = 0.1 }
  in
  let link = { fast_link with Link.faults } in
  let c = Rep.create ~rcfg:(rcfg ~link 3) (cfg ()) in
  let prim = Rep.primary c in
  let committed = ref 0 in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         let done_workers = ref 0 in
         spawn_workers prim ~nthreads:2 ~txs:10 ~committed ~done_workers;
         Sched.wait_until ~label:"workers done" (fun () -> !done_workers = 2);
         (match Rep.drain c with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "retransmit failed to reach quorum: %s" d);
         Rep.sync_followers c;
         Rep.stop c));
  check Alcotest.int "quorum acked everything committed" !committed (Rep.acked c);
  for i = 0 to 2 do
    let r = Rep.replica c i in
    check Alcotest.int
      (Printf.sprintf "replica %d sealed the full prefix" i)
      !committed (E.durable_id r);
    check Alcotest.int
      (Printf.sprintf "replica %d replayed the full prefix" i)
      !committed (E.applied_id r)
  done;
  (* The replayed state lives in each replica's persistent heap; promotion
     recovers it and must reproduce the full committed prefix. *)
  let eng, prom = Rep.promote c in
  check Alcotest.int "promotion recovers the full prefix" !committed
    prom.Rep.quorum_prefix;
  check Alcotest.int "promoted root matches the commit count" !committed
    (Int64.to_int (E.heap_read_u64 eng 0));
  let st = Rep.stats c in
  check Alcotest.bool "duplicates were deduped by batch seq" true (Stats.get st "dup_frames" > 0);
  check Alcotest.bool "corrupt frames were CRC-rejected" true (Stats.get st "crc_rejected" > 0);
  check Alcotest.bool "lost frames were retransmitted" true (Stats.get st "retransmits" > 0);
  check Alcotest.bool "retransmit rounds backed off" true
    (Stats.get st "retransmit_rounds" > 0 && Stats.get st "backoff_cycles" > 0);
  let corrupted =
    Array.fold_left
      (fun acc (down, up) ->
        acc + Stats.get down "frames_corrupted" + Stats.get up "frames_corrupted")
      0 (Rep.link_stats c)
  in
  check Alcotest.bool "links injected corruption" true (corrupted > 0)

(* -------------------- promotion truncates to quorum ---------------------- *)

exception Primary_died

(* At K=5 a transaction is quorum-acked once durable on the primary plus
   two replicas, so promotion's safe cut is the second-largest replica
   prefix — a lone replica that ran ahead of the quorum gets its
   never-acked tail discarded.  (At K=3 the cut is the maximum: an acked
   transaction is only guaranteed on one replica, so nothing above the
   longest prefix can be promised and nothing below it may be dropped.) *)
let test_promotion_truncates_to_quorum_prefix () =
  let c = Rep.create ~rcfg:(rcfg 5) (cfg ~nthreads:1 ()) in
  let prim = Rep.primary c in
  let committed = ref 0 in
  let commit_one () =
    match E.atomically prim ~thread:0 body with
    | Some (_, tid) when tid > 0 -> committed := max !committed tid
    | _ -> ()
  in
  (try
     ignore
       (Sched.run (fun () ->
            Rep.start c;
            (* Phase 1: a quorum-acked prefix on every replica. *)
            for _ = 1 to 8 do
              commit_one ()
            done;
            (match Rep.drain c with
            | Rep.Quorum -> ()
            | Rep.Degraded_quorum d -> Alcotest.failf "healthy drain degraded: %s" d);
            (* Phase 2: cut off every replica but 0.  The quorum watermark
               freezes; only replica 0 keeps receiving the tail. *)
            for i = 1 to 4 do
              Rep.set_partitioned c i true
            done;
            for _ = 1 to 24 do
              commit_one ()
            done;
            let guard = ref 0 in
            while E.durable_id (Rep.replica c 0) < !committed && !guard < 1_000 do
              incr guard;
              Sched.advance 5_000
            done;
            check Alcotest.int "replica 0 sealed the whole tail" !committed
              (E.durable_id (Rep.replica c 0));
            raise Primary_died))
   with Primary_died -> ());
  let acked = Rep.acked c in
  check Alcotest.bool "watermark froze below the committed tail" true
    (acked < !committed);
  let _eng, prom = Rep.promote c in
  let durable = prom.Rep.report.Dudetm_core.Dudetm.durable in
  check Alcotest.bool "replica 0 ran ahead of the quorum" true
    (prom.Rep.candidates.(0) > prom.Rep.quorum_prefix);
  check Alcotest.int "winner is the longest prefix" 0 prom.Rep.promoted;
  check Alcotest.bool "the never-acked tail was discarded" true (prom.Rep.truncated_txs > 0);
  check Alcotest.int "promotion stops at the quorum prefix" prom.Rep.quorum_prefix durable;
  check Alcotest.bool "no quorum-acked transaction lost" true (durable >= acked);
  check Alcotest.int "promoted image matches its durable id" durable
    (Int64.to_int (E.heap_read_u64 _eng 0))

(* ----------------- bounded waits and explicit degradation ---------------- *)

let test_degraded_mode_and_heal () =
  let ack_timeout = 100_000 in
  let c = Rep.create ~rcfg:(rcfg 3) (cfg ~ack_timeout ()) in
  let prim = Rep.primary c in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         for i = 0 to 2 do
           Rep.set_partitioned c i true
         done;
         let tid =
           match E.atomically prim ~thread:0 body with
           | Some (_, tid) -> tid
           | None -> Alcotest.fail "commit failed"
         in
         let t0 = Sched.now () in
         (match Rep.wait_acked c tid with
         | Rep.Quorum -> Alcotest.fail "quorum reached through a full partition"
         | Rep.Degraded_quorum msg ->
           check Alcotest.bool "degradation names the quorum" true
             (String.length msg > 0));
         let waited = Sched.now () - t0 in
         check Alcotest.bool
           (Printf.sprintf "wait bounded by ack_timeout (waited %d)" waited)
           true
           (waited <= ack_timeout + 50_000);
         (match Rep.health c with
         | Rep.Degraded _ -> ()
         | Rep.Healthy -> Alcotest.fail "degradation must be explicit, not silent");
         let diag = Rep.diagnostic c in
         let has needle =
           let n = String.length needle and l = String.length diag in
           let rec go i = i + n <= l && (String.sub diag i n = needle || go (i + 1)) in
           go 0
         in
         check Alcotest.bool "diagnostic reports per-replica lag" true (has "lag=");
         check Alcotest.bool "diagnostic reports retransmit counters" true
           (has "retransmits=");
         (try
            ignore (Rep.drain ~require_quorum:true c);
            Alcotest.fail "drain ~require_quorum through a full partition"
          with Rep.Replica_lag _ -> ());
         check Alcotest.bool "degraded acks counted" true
           (Stats.get (Rep.stats c) "degraded_acks" >= 1);
         (* Heal: retransmission catches the replicas up and the cluster
            returns to quorum service. *)
         for i = 0 to 2 do
           Rep.set_partitioned c i false
         done;
         let guard = ref 0 in
         while Rep.acked c < tid && !guard < 1_000 do
           incr guard;
           Sched.advance 5_000
         done;
         check Alcotest.bool "healed cluster reaches quorum" true (Rep.acked c >= tid);
         (match Rep.wait_acked c tid with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "still degraded after heal: %s" d);
         (match Rep.health c with
         | Rep.Healthy -> ()
         | Rep.Degraded d -> Alcotest.failf "health not restored after heal: %s" d);
         Rep.stop c))

(* ------------------- bounded retransmit retention ------------------------ *)

(* A partitioned follower must not pin unbounded primary DRAM: with a tiny
   retention cap, the laggard gets cut off (sticky, reported through
   [health]) while the live replicas keep acking the quorum. *)
let test_retention_cap_cuts_off_laggard () =
  let cap = 8 in
  let rc = { (rcfg 3) with Rep.max_retained = cap } in
  let c = Rep.create ~rcfg:rc (cfg ~nthreads:1 ()) in
  let prim = Rep.primary c in
  let committed = ref 0 in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         Rep.set_partitioned c 2 true;
         for i = 1 to 24 do
           match E.atomically prim ~thread:0 body with
           | Some (_, tid) when tid > 0 -> (
             committed := max !committed tid;
             match Rep.wait_acked c tid with
             | Rep.Quorum -> ()
             | Rep.Degraded_quorum d ->
               Alcotest.failf "healthy quorum lost behind the laggard at tx %d: %s" i d)
           | _ -> ()
         done;
         (match Rep.drain c with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "drain lost quorum: %s" d);
         check Alcotest.bool
           (Printf.sprintf "retained queue bounded by the cap (%d)" (Rep.retained c))
           true
           (Rep.retained c <= cap);
         check Alcotest.bool "the partitioned laggard is cut off" true
           (Rep.cut_off c).(2);
         check Alcotest.bool "live replicas stay in service" false
           ((Rep.cut_off c).(0) || (Rep.cut_off c).(1));
         (match Rep.health c with
         | Rep.Degraded d ->
           let has needle =
             let n = String.length needle and l = String.length d in
             let rec go i = i + n <= l && (String.sub d i n = needle || go (i + 1)) in
             go 0
           in
           check Alcotest.bool "alarm names the cut-off replica" true (has "cut off");
           check Alcotest.bool "alarm names the retention bound" true (has "retention")
         | Rep.Healthy -> Alcotest.fail "a tripped retention cap must degrade health");
         (* Sticky: healing the link cannot un-cut the replica — its
            missing batches are gone; only a resync could revive it. *)
         Rep.set_partitioned c 2 false;
         Sched.advance 200_000;
         check Alcotest.bool "cut-off survives a link heal" true (Rep.cut_off c).(2);
         (match Rep.health c with
         | Rep.Degraded _ -> ()
         | Rep.Healthy -> Alcotest.fail "the lag alarm must stay sticky");
         Rep.stop c));
  check Alcotest.int "quorum acked everything committed" !committed (Rep.acked c);
  let st = Rep.stats c in
  check Alcotest.bool "retention drops counted" true (Stats.get st "retention_drops" > 0);
  check Alcotest.int "exactly one replica cut off" 1 (Stats.get st "replicas_cut_off")

(* ----------------------------- tracing ----------------------------------- *)

let with_tracer ?capacity f =
  Trace.enable ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

let test_trace_spans_and_link_accounting () =
  with_tracer @@ fun () ->
  let c = Rep.create ~rcfg:(rcfg 1) (cfg ~nthreads:1 ()) in
  let prim = Rep.primary c in
  let committed = ref 0 in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         let done_workers = ref 0 in
         spawn_workers prim ~nthreads:1 ~txs:8 ~committed ~done_workers;
         Sched.wait_until ~label:"worker done" (fun () -> !done_workers = 1);
         ignore (Rep.drain c);
         Rep.sync_followers c;
         Rep.stop c));
  ignore (Rep.promote c);
  let phase name =
    List.find_opt
      (fun p -> p.Trace.ph_cat = "replica" && p.Trace.ph_name = name)
      (Trace.phases ())
  in
  (match phase "ship" with
  | Some p -> check Alcotest.bool "ship spans recorded" true (p.Trace.ph_count > 0)
  | None -> Alcotest.fail "no replica.ship spans");
  (match phase "apply" with
  | Some p -> check Alcotest.bool "apply spans recorded" true (p.Trace.ph_count > 0)
  | None -> Alcotest.fail "no replica.apply spans");
  (match phase "promote" with
  | Some p -> check Alcotest.int "one promotion span" 1 p.Trace.ph_count
  | None -> Alcotest.fail "no replica.promote span");
  (match
     List.find_opt (fun a -> a.Trace.lk_link = "ship:replica0") (Trace.link_accts ())
   with
  | Some a ->
    check Alcotest.bool "ship link accounted bytes" true (a.Trace.lk_bytes > 0);
    check Alcotest.bool "ship link accounted frames" true (a.Trace.lk_frames > 0)
  | None -> Alcotest.fail "no per-link byte accounting for ship:replica0");
  let summary = Trace.summary_json () in
  let has needle =
    let n = String.length needle and l = String.length summary in
    let rec go i = i + n <= l && (String.sub summary i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "summary exports the links section" true (has "\"links\"")

let test_link_transfer_zero_alloc_when_disabled () =
  assert (not (Trace.enabled ()));
  let before = Gc.minor_words () in
  for i = 1 to 1_000 do
    Trace.link_transfer ~link:"ship:replica0" ~bytes:i ~cycles:i
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 64.0 then
    Alcotest.failf "disabled link_transfer allocated %.0f minor words" delta

(* ----------------------------- campaign ---------------------------------- *)

let test_campaign_clean () =
  match Check.run ~args:[ ("--txs", "6") ] Campaign.Replica with
  | Campaign.Pass { runs; boundaries; _ } ->
    check Alcotest.bool "swept multiple runs" true (runs > 10 && boundaries > 0)
  | Campaign.Fail f ->
    Alcotest.failf "campaign failed: %s (replay: %s)" f.reason (Campaign.replay_line f)

let suite =
  [
    Alcotest.test_case "replica: wire frames roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "replica: CRC rejects any single-bit flip" `Quick
      test_wire_crc_rejects_any_flip;
    Alcotest.test_case "replica: link faults are seeded and deterministic" `Quick
      test_link_faults_deterministic;
    Alcotest.test_case "replica: partitioned link drops at the sender" `Quick
      test_link_partition_drops;
    Alcotest.test_case "replica: quorum math" `Quick test_quorum_math;
    Alcotest.test_case "replica: config validation" `Quick test_create_validates;
    Alcotest.test_case "replica: K=1 degenerates to the unreplicated engine" `Quick
      test_k1_matches_unreplicated;
    Alcotest.test_case "replica: follower ring is a byte-identical prefix" `Quick
      test_follower_ring_byte_identical;
    Alcotest.test_case "replica: hostile links — dedup, CRC, retransmit, converge" `Quick
      test_faulty_links_end_to_end;
    Alcotest.test_case "replica: promotion truncates to the quorum prefix" `Quick
      test_promotion_truncates_to_quorum_prefix;
    Alcotest.test_case "replica: bounded waits, explicit degradation, heal" `Quick
      test_degraded_mode_and_heal;
    Alcotest.test_case "replica: retention cap cuts off the laggard" `Quick
      test_retention_cap_cuts_off_laggard;
    Alcotest.test_case "replica: trace spans and per-link accounting" `Quick
      test_trace_spans_and_link_accounting;
    Alcotest.test_case "replica: disabled link_transfer allocates nothing" `Quick
      test_link_transfer_zero_alloc_when_disabled;
    Alcotest.test_case "replica: failover campaign passes" `Slow test_campaign_clean;
  ]
