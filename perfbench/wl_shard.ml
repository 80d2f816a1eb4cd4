(* shard-cross: closed-loop transfers over 8 shards, 20% of them cross-shard.

   Eight worker fibers each run transfers back to back (a short think time
   between commits, no wait for durability); a ninth client reads two
   accounts of one shard through the snapshot path.  Every transfer moves
   an amount between two accounts and stamps the worker's sequence number
   into a per-worker slot on each shard it touches, so after the power cut
   the recovered image tells exactly which transfers survived on each
   shard.  Durable acknowledgements are collected per worker, in commit
   order, by an acker fiber blocked in [Shard.wait_durable].

   Each round runs several independent sub-runs (fresh devices, seeds
   derived from the workload seed): the cross-shard path's host cost grows
   with run length, so many short runs measure more transactions for the
   same host time than one long one. *)

open Common
module Rng = Dudetm_sim.Rng
module Config = Dudetm_core.Config
module Partition = Dudetm_workloads.Partition
module Sh = Dudetm_shard.Shard.Make (Dudetm_tm.Tinystm)

let nshards = 8

let workers = 8

let cross_pct = 20

let naccounts = 4096

let think = 50

let audit_think = 200

let warmup_cycles = 200_000

let window_cycles = 1_000_000

let subruns = 24

(* Host-time slices per timed window. *)
let slices = 2

(* Write-ack limit for [slo_rate_mtps] (simulated us). *)
let limit_us = 100.0

let cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads = workers;
    vlog_capacity = 128;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    checkpoint_records = 2;
    seed = 11;
    pmem =
      {
        Dudetm_nvm.Pmem_config.default with
        Dudetm_nvm.Pmem_config.bandwidth_gbps = 0.25;
        persist_latency = 500;
      };
  }

(* Account placement: each account gets its own word on its home shard;
   the per-worker sequence slots follow the accounts. *)
type layout = {
  home : int array;
  off : int array;
  by_shard : int array array;  (* accounts homed on each shard *)
  seq_base : int;
}

let layout () =
  let part = Partition.hashed ~nshards in
  let next = Array.make nshards 0 in
  let home = Array.init naccounts (fun k -> Partition.shard_of part (Int64.of_int k)) in
  let off =
    Array.init naccounts (fun k ->
        let s = home.(k) in
        let i = next.(s) in
        next.(s) <- i + 1;
        64 + (8 * i))
  in
  let seq_base = 64 + (8 * Array.fold_left max 0 next) in
  if seq_base + (8 * workers) > cfg.Config.heap_size then invalid_arg "shard-cross: heap too small";
  let by_shard =
    Array.init nshards (fun s ->
        Array.of_list (List.filter (fun k -> home.(k) = s) (List.init naccounts Fun.id)))
  in
  { home; off; by_shard; seq_base }

type transfer = {
  seq : int;  (* worker-local, from 1 *)
  src : int;
  dst : int;
  amount : int;
  mutable acked : bool;
}

let touched lay tr = List.sort_uniq compare [ lay.home.(tr.src); lay.home.(tr.dst) ]

(* The next transfer of a worker: a cross-shard one with probability
   [cross_pct]%, else between two accounts of one shard. *)
let draw lay rng ~seq =
  let src = Rng.int rng naccounts in
  let cross = Rng.int rng 100 < cross_pct in
  let rec partner () =
    let k = Rng.int rng naccounts in
    if k = src || (lay.home.(k) = lay.home.(src)) = cross then partner () else k
  in
  let dst = partner () in
  ({ seq; src; dst; amount = 1 + Rng.int rng 100; acked = false }, cross)

let apply sh lay ~w tr shards =
  Sh.atomically sh ~thread:w ~shards (fun tx ->
      let hs = lay.home.(tr.src) and hd = lay.home.(tr.dst) in
      let a = Sh.read tx ~shard:hs lay.off.(tr.src) in
      let b = Sh.read tx ~shard:hd lay.off.(tr.dst) in
      let amt = Int64.of_int tr.amount in
      Sh.write tx ~shard:hs lay.off.(tr.src) (Int64.sub a amt);
      Sh.write tx ~shard:hd lay.off.(tr.dst) (Int64.add b amt);
      List.iter
        (fun s -> Sh.write tx ~shard:s (lay.seq_base + (8 * w)) (Int64.of_int tr.seq))
        shards)

(* Every acked transfer survived; every cross-shard transfer survived on
   all its shards or on none; balances equal the surviving transfers'
   effect and sum to zero. *)
let verify lay log sh2 =
  let read s off = Sh.Engine.heap_read_u64 (Sh.engine sh2 s) off in
  let expected = Array.make naccounts 0L in
  Array.iteri
    (fun w trs ->
      let upto = Array.init nshards (fun s -> Int64.to_int (read s (lay.seq_base + (8 * w)))) in
      List.iter
        (fun tr ->
          let on = List.map (fun s -> tr.seq <= upto.(s)) (touched lay tr) in
          let survived = List.for_all Fun.id on in
          if survived <> List.exists Fun.id on then
            fail "shard-cross: transfer %d of worker %d survived on only some shards" tr.seq w;
          if tr.acked && not survived then
            fail "shard-cross: acked transfer %d of worker %d lost by the power cut" tr.seq w;
          if survived then begin
            let a = Int64.of_int tr.amount in
            expected.(tr.src) <- Int64.sub expected.(tr.src) a;
            expected.(tr.dst) <- Int64.add expected.(tr.dst) a
          end)
        (List.rev !trs))
    log;
  let total = ref 0L in
  Array.iteri
    (fun k e ->
      let v = read lay.home.(k) lay.off.(k) in
      total := Int64.add !total v;
      if v <> e then fail "shard-cross: account %d holds %Ld, surviving transfers give %Ld" k v e)
    expected;
  if !total <> 0L then fail "shard-cross: balances sum to %Ld, not 0" !total

let run_sub ~spans ~seed lay =
  (* Start every sub-run from a collected heap, so garbage left by the
     previous one does not land in this one's host timings. *)
  Gc.full_major ();
  let h = host () in
  let sh = Sh.create ~nshards cfg in
  let probes =
    Array.init nshards (fun s ->
        let e = Sh.engine sh s in
        {
          engine_stats = (fun () -> Sh.Engine.stats e);
          tm_stats = (fun () -> Dudetm_tm.Tinystm.stats (Sh.Engine.tm e));
          shadow_stats = (fun () -> Sh.Engine.shadow_stats e);
          nvm = Sh.nvm sh s;
        })
  in
  let log = Array.init workers (fun _ -> ref []) in
  let commits = ref 0 and user_bytes = ref 0 in
  let acks = Measure.samples () and reads = Measure.samples () in
  let pending = Array.init workers (fun _ -> Queue.create ()) in
  let last_src = ref 0 in
  (* Phases by simulated time: warm-up, then the timed window; transfers
     that begin inside the window are the timed ones. *)
  let phase = ref `Warmup and outstanding = ref 0 in
  let acked_in_window = ref 0 and in_limit = ref 0 in
  let stop = ref false and idle = ref 0 in
  let open_mk = marker () and close_mk = marker () in
  let before = ref [||] and after = ref [||] in
  let bytes0 = ref 0 and bytes1 = ref 0 in
  let limit_cycles = Dudetm_sim.Cycles.of_ns (limit_us *. 1000.0) in
  let worker w () =
    let rng = Rng.create (seed + (w * 7919)) in
    let seq = ref 0 in
    while not !stop do
      Sched.advance think;
      incr seq;
      let tr, cross = draw lay rng ~seq:!seq in
      log.(w) := tr :: !(log.(w));
      let shards = touched lay tr in
      let timed = !phase = `Timed in
      if timed then incr outstanding;
      let req = (w lsl 24) lor !seq in
      let root = Spans.enter spans ~req "request" in
      let call =
        Spans.enter spans ~parent:root ~req
          (if cross then "shard.cross_call" else "shard.single_call")
      in
      let t0 = Sched.now () in
      let outcome = apply sh lay ~w tr shards in
      Spans.leave spans call;
      last_src := tr.src;
      incr commits;
      user_bytes := !user_bytes + (8 * (2 + List.length shards));
      match outcome with
      | Some ((), ack) -> Queue.push (tr, ack, t0, timed, root) pending.(w)
      | None -> fail "shard-cross: transfer %d of worker %d aborted" tr.seq w
    done;
    incr idle
  in
  let acker w () =
    while true do
      Sched.wait_until ~label:"bench ack" (fun () -> not (Queue.is_empty pending.(w)));
      let tr, ack, t0, timed, root = Queue.peek pending.(w) in
      let req = (w lsl 24) lor tr.seq in
      let sp = Spans.enter spans ~parent:root ~req "shard.durable_wait" in
      Sh.wait_durable sh ack;
      Spans.leave spans sp;
      Spans.leave spans root;
      ignore (Queue.pop pending.(w));
      tr.acked <- true;
      let lat = Sched.now () - t0 in
      if !phase = `Timed then begin
        incr acked_in_window;
        if lat <= limit_cycles then incr in_limit
      end;
      if timed then begin
        Measure.add acks lat;
        decr outstanding
      end
    done
  in
  let auditor () =
    let rng = Rng.create (seed + 104729) in
    let k = ref 0 in
    while not !stop do
      Sched.advance audit_think;
      incr k;
      (* The source account of the latest transfer, plus a random account
         of the same shard: a durable-only snapshot of a fresh write waits
         for that shard's watermark to catch up, so nearly every read
         times the durable-read path rather than the unpinned fast path. *)
      let src = !last_src in
      let s = lay.home.(src) in
      let others = lay.by_shard.(s) in
      let a = lay.off.(src) and b = lay.off.(others.(Rng.int rng (Array.length others))) in
      let timed = !phase = `Timed in
      let sp = Spans.enter spans ~req:((1 lsl 40) lor !k) "shard.ro_call" in
      let t0 = Sched.now () in
      (match
         Sh.atomically_ro ~durable:true sh ~thread:(!k mod workers) ~shard:s (fun tx ->
             Int64.add (Sh.read tx ~shard:s a) (Sh.read tx ~shard:s b))
       with
      | Some _ -> ()
      | None -> fail "shard-cross: snapshot read aborted");
      Spans.leave spans sp;
      if timed then Measure.add reads (Sched.now () - t0)
    done
  in
  (try
     ignore
       (Sched.run (fun () ->
            Sh.start sh;
            for w = 0 to workers - 1 do
              ignore (Sched.spawn (Printf.sprintf "bench-worker-%d" w) (worker w));
              ignore (Sched.spawn ~daemon:true (Printf.sprintf "bench-acker-%d" w) (acker w))
            done;
            ignore (Sched.spawn ~daemon:true "bench-auditor" auditor);
            Sched.advance warmup_cycles;
            phase := `Timed;
            mark open_mk ~commits:!commits;
            before := snap probes;
            bytes0 := !user_bytes;
            timed_window h ~cycles:window_cycles ~slices ~completed:(fun () -> !commits);
            phase := `Tail;
            mark close_mk ~commits:!commits;
            after := snap probes;
            bytes1 := !user_bytes;
            (* Keep the load on until every timed transfer is acked, then
               stop the clients and cut power mid-pipeline. *)
            Sched.wait_until ~label:"bench timed acks" (fun () -> !outstanding = 0);
            stop := true;
            Sched.wait_until ~label:"bench workers idle" (fun () -> !idle = workers);
            raise Power_cut))
   with Power_cut -> ());
  let window = close_mk.sim - open_mk.sim in
  let txs = close_mk.commits - open_mk.commits in
  let counters = counter_metrics ~probes ~before:!before ~after:!after ~txs ~cycles:window in
  let nvm_bytes =
    Array.fold_left ( + ) 0 (Array.mapi (fun i s -> s.bytes - !before.(i).bytes) !after)
  in
  (* Power cut with the pipeline un-drained, then recovery. *)
  let devices = Array.init nshards (Sh.nvm sh) in
  Array.iter (fun d -> Nvm.crash ~evict_fraction:0.0 d) devices;
  (* Recovery as a user sees it: power on, attach, check the acked work,
     restart, and have one transfer per worker durably acked.  The
     simulation starts at 0, so its end time is the recovery time. *)
  let attach_cycles = ref 0 in
  let recovery =
    Sched.run (fun () ->
        let sp = Spans.enter spans ~req:0 "shard.attach" in
        let sh2, _ = Sh.attach ~nshards cfg devices in
        Spans.leave spans sp;
        attach_cycles := Sched.now ();
        verify lay log sh2;
        Sh.start sh2;
        let rng = Rng.create (seed + 15485863) in
        let left = ref workers in
        for w = 0 to workers - 1 do
          let tr, _ = draw lay rng ~seq:0 in
          ignore
            (Sched.spawn (Printf.sprintf "bench-restart-%d" w) (fun () ->
                 match apply sh2 lay ~w tr (touched lay tr) with
                 | Some ((), ack) ->
                   Sh.wait_durable sh2 ack;
                   decr left
                 | None -> fail "shard-cross: transfer after restart aborted"))
        done;
        Sched.wait_until ~label:"bench restart acks" (fun () -> !left = 0))
  in
  {
    acks;
    reads;
    window;
    acked = !acked_in_window;
    recoveries = [ recovery ];
    attach = !attach_cycles;
    acked_in_limit = !in_limit;
    counters;
    user_bytes = !bytes1 - !bytes0;
    nvm_bytes;
    setup_s = h.setup_s;
    host = h;
  }

let run ~seed ~spans =
  let lay = layout () in
  let subs = List.init subruns (fun i -> run_sub ~spans ~seed:(seed + (i * 1_000_003)) lay) in
  let traced, host_layer =
    if not (Spans.enabled spans) then ([], [])
    else
      let d = Spans.durations spans in
      let ns, k = Spans.host_total spans "shard.cross_call" in
      ( [
          layer_pct_us "shard.cross_call_p50_us" (d "shard.cross_call") 50.0;
          layer_pct_us "shard.cross_call_p99_us" (d "shard.cross_call") 99.0;
          layer_pct_us "shard.single_call_p99_us" (d "shard.single_call") 99.0;
          layer_pct_us "shard.durable_wait_p50_us" (d "shard.durable_wait") 50.0;
          layer_pct_us "shard.durable_wait_p99_us" (d "shard.durable_wait") 99.0;
          layer_pct_us "shard.ro_call_p99_us" (d "shard.ro_call") 99.0;
          m ~n:subruns "shard.attach_us" "us" (attach_us subs);
        ],
        [ m ~n:k "shard.cross_host_us" "us" (Measure.ratio ns k /. 1000.0) ] )
  in
  closed_loop ~subs ~traced ~host_layer
