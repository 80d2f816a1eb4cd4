(* tpcc-paged: the TPC-C mix on B+-tree tables over one DudeTM engine whose
   paged shadow is smaller than the pages the run touches.

   4 Perform threads run New-Order / Payment / Order-Status (40/40/20)
   back to back on a PCM-class device (3500-cycle persist, 1 GB/s).  The
   benchmark hands TPC-C its own wrapper of the engine's interface, so
   every [Dudetm.atomically] call and every user write is seen at the
   call boundary.  An acker fiber per thread waits for each write
   transaction in [Dudetm.wait_durable], in commit order.  Write-ack
   latency is New-Order's, TPC-C's headline transaction: Payment is an
   order of magnitude shorter, so a percentile over both would sit in the
   gap between their distributions and jump with the mix of a seed.

   After the timed phase the threads stop, the live image passes
   [Tpcc.consistency_check], the threads restart for an unacknowledged
   tail, power is cut with the pipeline un-drained, and the recovered
   image must pass it again with every acked transaction at or below the
   recovered durable ID.  Copies of the persisted image taken earlier in
   the tail are recovered too, for more recovery-time samples; they are
   checked for the acked transactions only. *)

open Common
module Rng = Dudetm_sim.Rng
module Config = Dudetm_core.Config
module Tpcc = Dudetm_workloads.Tpcc
module Kv = Dudetm_workloads.Kv
module Ptm = Dudetm_baselines.Ptm_intf
module Dp = Dudetm_baselines.Dude_ptm.Stm
module D = Dp.D

let nthreads = 4

let items = 1000

(* Shadow frames (4 KiB pages), fewer than the pages a sub-run touches, so
   the shadow pages (about 0.7 faults per transaction).  24 frames deadlock
   at once with "all frames pinned", and 48 do so once the order tables
   have grown for ~10k transactions; 96 leave a margin. *)
let frames = 96

let warmup_cycles = 2_000_000

let window_cycles = 40_000_000

(* The consistency check's cost grows faster than the database, so a
   round is several short sub-runs rather than one long one. *)
let subruns = 8

(* Host-time slices per timed window. *)
let slices = 6

let think = 0

(* Unacknowledged load between the live-image check and the power cut. *)
let tail_cycles = 300_000

(* Power cuts per sub-run, evenly spaced over the tail: the last is the real
   one; the others recover a copy of the persisted image at that moment.
   A recovery's time depends on how much log the cut leaves to replay, so
   one cut per sub-run gives too few samples to average. *)
let cuts = 5

(* Write-ack limit for [slo_rate_mtps] (simulated us). *)
let limit_us = 500.0

let cfg =
  {
    Config.default with
    Config.heap_size = 4 * 1024 * 1024;
    plog_size = 1 lsl 18;
    nthreads;
    pmem = Dudetm_nvm.Pmem_config.pcm;
    shadow_frames = Some frames;
  }

(* The engine interface as TPC-C sees it, with each [atomically] call timed
   and the committed attempt's writes counted. *)
let wrap (p : Ptm.t) ~spans ~req ~parent ~writes =
  let atomically : 'a. thread:int -> ?wset:int list -> (Ptm.tx -> 'a) -> ('a * int) option =
   fun ~thread ?wset f ->
    let n = ref 0 in
    let sp = Spans.enter spans ~parent:parent.(thread) ~req:req.(thread) "engine.call" in
    let r =
      p.Ptm.atomically ~thread ?wset (fun tx ->
          n := 0;
          f { tx with Ptm.write = (fun a v -> incr n; tx.Ptm.write a v) })
    in
    Spans.leave spans sp;
    writes := !writes + !n;
    r
  in
  { p with Ptm.atomically }

(* The engine's heap as its device holds it.  Once Reproduce has applied
   every commit (or recovery has replayed the durable prefix) this is the
   whole database, and reading it faults no shadow page in. *)
let nvm_view (p : Ptm.t) nvm = { p with Ptm.peek = Nvm.load_u64 nvm }

let check ptm stage =
  try Tpcc.consistency_check (Tpcc.attach ptm)
  with Failure msg -> fail "tpcc-paged %s: %s" stage msg

type kind = New_order | Payment | Order_status

(* A device holding [image] as its persisted and only content, like [like]
   after a power cut. *)
let device_of like image =
  let d = Nvm.create (Nvm.config like) ~size:(Nvm.size like) in
  Nvm.store_bytes d 0 image;
  Nvm.crash ~evict_fraction:1.0 ~rng:(Rng.create 0) d;
  d

(* Recovery as a user sees it: attach to the crashed device, check that
   every acked transaction is at or below the recovered durable ID (and,
   with [full_check], the recovered database), restart, and have one
   Payment per thread durably acked.  Returns the attach and the whole
   recovery in simulated cycles; each simulation starts at 0. *)
let recover ~spans ~seed ~acked ~full_check nvm =
  let recovered = ref None in
  let attach =
    Sched.run (fun () ->
        let sp = Spans.enter spans ~req:0 "engine.attach" in
        recovered := Some (Dp.attach_ptm cfg nvm);
        Spans.leave spans sp)
  in
  let ptm, e, report = Option.get !recovered in
  let t = Tpcc.attach ptm in
  if full_check then check (nvm_view ptm (D.nvm e)) "after recovery";
  if acked > report.Dudetm_core.Dudetm.durable then
    fail "tpcc-paged: acked tid %d beyond the recovered durable ID %d" acked
      report.Dudetm_core.Dudetm.durable;
  let restart =
    Sched.run (fun () ->
        ptm.Ptm.start ();
        let rng = Rng.create (seed + 15485863) in
        let left = ref nthreads in
        for th = 0 to nthreads - 1 do
          ignore
            (Sched.spawn (Printf.sprintf "bench-restart-%d" th) (fun () ->
                 D.wait_durable e (Tpcc.payment t ~thread:th ~rng ());
                 decr left))
        done;
        Sched.wait_until ~label:"bench restart acks" (fun () -> !left = 0))
  in
  (attach, attach + restart)

let draw rng =
  let u = Rng.int rng 100 in
  if u < 40 then New_order else if u < 80 then Payment else Order_status

let run_sub ~spans ~seed =
  (* Start every sub-run from a collected heap, so garbage left by the
     previous one does not land in this one's host timings. *)
  Gc.full_major ();
  let h = host () in
  let base, e = Dp.ptm cfg in
  let probe =
    {
      engine_stats = (fun () -> D.stats e);
      tm_stats = (fun () -> Dudetm_tm.Tinystm.stats (D.tm e));
      shadow_stats = (fun () -> D.shadow_stats e);
      nvm = D.nvm e;
    }
  in
  let probes = [| probe |] in
  let req = Array.make nthreads 0 and parent = Array.make nthreads Spans.none in
  let writes = ref 0 in
  let ptm = wrap base ~spans ~req ~parent ~writes in
  let acks = Measure.samples () and reads = Measure.samples () in
  let pending = Array.init nthreads (fun _ -> Queue.create ()) in
  let phase = ref `Warmup and outstanding = ref 0 in
  let acked_in_window = ref 0 and in_limit = ref 0 and max_acked = ref 0 in
  let commits = ref 0 and stop = ref false and idle = ref 0 in
  let open_mk = marker () and close_mk = marker () in
  let before = ref [||] and after = ref [||] in
  let w0 = ref 0 and w1 = ref 0 in
  let limit_cycles = Cycles.of_ns (limit_us *. 1000.0) in
  let db = ref None and images = ref [] in
  let worker th () =
    let t = Option.get !db in
    let rng = Rng.create (seed + (th * 7919)) in
    let k = ref 0 in
    while not !stop do
      if think > 0 then Sched.advance think;
      incr k;
      let timed = !phase = `Timed in
      let kind = draw rng in
      req.(th) <- (th lsl 32) lor !k;
      let root = Spans.enter spans ~req:req.(th) "request" in
      parent.(th) <- root;
      let t0 = Sched.now () in
      (match kind with
      | New_order | Payment ->
        let tid =
          if kind = New_order then Tpcc.new_order t ~thread:th ~rng ()
          else Tpcc.payment t ~thread:th ~rng ()
        in
        if timed then incr outstanding;
        Queue.push (tid, t0, timed, kind, root, req.(th)) pending.(th)
      | Order_status ->
        ignore (Tpcc.order_status t ~thread:th ~rng ());
        Spans.leave spans root;
        if timed then Measure.add reads (Sched.now () - t0));
      incr commits
    done;
    incr idle
  in
  let acker th () =
    while true do
      Sched.wait_until ~label:"bench ack" (fun () -> not (Queue.is_empty pending.(th)));
      let tid, t0, timed, kind, root, r = Queue.peek pending.(th) in
      let sp = Spans.enter spans ~parent:root ~req:r "engine.durable_wait" in
      D.wait_durable e tid;
      Spans.leave spans sp;
      Spans.leave spans root;
      ignore (Queue.pop pending.(th));
      max_acked := max !max_acked tid;
      let lat = Sched.now () - t0 in
      if !phase = `Timed then begin
        incr acked_in_window;
        if lat <= limit_cycles then incr in_limit
      end;
      if timed then begin
        if kind = New_order then Measure.add acks lat;
        decr outstanding
      end
    done
  in
  (try
     ignore
       (Sched.run (fun () ->
            ptm.Ptm.start ();
            db := Some (Tpcc.setup ptm ~storage:Kv.Tree ~items ());
            let t_start = Sched.now () in
            for th = 0 to nthreads - 1 do
              ignore (Sched.spawn (Printf.sprintf "bench-worker-%d" th) (worker th));
              ignore (Sched.spawn ~daemon:true (Printf.sprintf "bench-acker-%d" th) (acker th))
            done;
            Sched.advance (t_start + warmup_cycles - Sched.now ());
            phase := `Timed;
            mark open_mk ~commits:!commits;
            before := snap probes;
            w0 := !writes;
            timed_window h ~cycles:window_cycles ~slices ~completed:(fun () -> !commits);
            phase := `Tail;
            mark close_mk ~commits:!commits;
            after := snap probes;
            w1 := !writes;
            Sched.wait_until ~label:"bench timed acks" (fun () -> !outstanding = 0);
            stop := true;
            Sched.wait_until ~label:"bench workers idle" (fun () -> !idle = nthreads);
            (* Quiesce, let Reproduce apply every commit, and check the
               live image; then a short unacknowledged tail, and the cut. *)
            Sched.wait_until ~label:"bench reproduce caught up" (fun () ->
                D.applied_id e >= D.last_tid e);
            check (nvm_view ptm (D.nvm e)) "before the power cut";
            stop := false;
            idle := 0;
            for th = 0 to nthreads - 1 do
              ignore (Sched.spawn (Printf.sprintf "bench-tail-%d" th) (worker th))
            done;
            for k = 1 to cuts - 1 do
              Sched.advance ((tail_cycles * k / cuts) - (tail_cycles * (k - 1) / cuts));
              let nvm = D.nvm e in
              images := (Nvm.persisted_bytes nvm 0 (Nvm.size nvm), !max_acked) :: !images
            done;
            Sched.advance (tail_cycles - (tail_cycles * (cuts - 1) / cuts));
            raise Power_cut))
   with Power_cut -> ());
  let window = close_mk.sim - open_mk.sim in
  let txs = close_mk.commits - open_mk.commits in
  (* Power cut with the pipeline un-drained. *)
  Nvm.crash ~evict_fraction:0.0 (D.nvm e);
  let attach, recovery = recover ~spans ~seed ~acked:!max_acked ~full_check:true (D.nvm e) in
  let earlier =
    List.map
      (fun (image, acked) -> snd (recover ~spans ~seed ~acked ~full_check:false (device_of (D.nvm e) image)))
      !images
  in
  {
    acks;
    reads;
    window;
    acked = !acked_in_window;
    acked_in_limit = !in_limit;
    recoveries = recovery :: earlier;
    attach;
    counters = counter_metrics ~probes ~before:!before ~after:!after ~txs ~cycles:window;
    user_bytes = 8 * (!w1 - !w0);
    nvm_bytes = !after.(0).bytes - !before.(0).bytes;
    setup_s = h.setup_s;
    host = h;
  }

let run ~seed ~spans =
  let subs = List.init subruns (fun i -> run_sub ~spans ~seed:(seed + (i * 1_000_003))) in
  let traced =
    if not (Spans.enabled spans) then []
    else
      let d = Spans.durations spans in
      [
        layer_pct_us "engine.call_p50_us" (d "engine.call") 50.0;
        layer_pct_us "engine.call_p99_us" (d "engine.call") 99.0;
        layer_pct_us "engine.durable_wait_p50_us" (d "engine.durable_wait") 50.0;
        layer_pct_us "engine.durable_wait_p99_us" (d "engine.durable_wait") 99.0;
        m ~n:subruns "engine.attach_us" "us" (attach_us subs);
      ]
  in
  closed_loop ~subs ~traced ~host_layer:[]
