(* Shared plumbing for the three workloads: clocks, the per-round outcome,
   phase markers and the per-layer metrics read from each layer's public
   counters. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Cycles = Dudetm_sim.Cycles
module Nvm = Dudetm_nvm.Nvm

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* Raised from a simulation's main fiber to cut power mid-pipeline: the
   scheduler unwinds at once, so no daemon gets to flush or drain. *)
exception Power_cut

let host_ns () = Int64.to_int (Monotonic_clock.now ())

let host_s () = float_of_int (host_ns ()) /. 1e9

let cpu_s () = Sys.time ()

let us c = Cycles.to_us c

let mtps ~count ~cycles = float_of_int count /. Cycles.to_seconds cycles /. 1e6

(* A metric as reported: value, unit, and the number of samples behind it
   (0 for values that are not sample statistics). *)
type metric = { name : string; value : float; unit_ : string; n : int }

let m ?(n = 0) name unit_ value = { name; value; unit_; n }

(* A percentile of simulated cycles reported in microseconds.  Raises when
   the samples cannot support it: a workload that is too small to state
   its tail must not report one. *)
let pct_us name (s : Measure.samples) p =
  match Measure.percentile s p with
  | Some c -> m ~n:(Measure.count s) name "us" (us c)
  | None ->
    fail "%s: %d samples cannot support a p%g (need %d beyond it)" name (Measure.count s) p
      Measure.min_beyond

(* Per-layer percentile: 0 when the layer did no work on this workload. *)
let layer_pct_us name s p = if Measure.count s = 0 then m name "us" 0.0 else pct_us name s p

(* What one round of a workload produced. *)
type outcome = {
  sim : metric list;
      (* simulated-clock and counter metrics: identical for a seed, traced
         or not *)
  traced : metric list;  (* per-layer call metrics derived from the spans *)
  host_layer : metric list;  (* host-clock per-call metrics (traced rounds) *)
  setups_s : float list;
      (* calibrated host seconds from set-up start to the first timed
         operation, one per sub-run *)
  host_us_per_tx : float list;
      (* calibrated host CPU us per transaction completed in a timed
         window, one value per slice of a window *)
  alloc_words_per_tx : float;  (* OCaml minor words per transaction, timed windows *)
  attempted : int;
  failed : int;
}

(* ------------------------------------------------------------------ *)
(* Timed-phase markers and host time                                   *)
(* ------------------------------------------------------------------ *)

(* Readings taken inside the simulation when a timed window opens and
   closes. *)
type marker = { mutable commits : int; mutable sim : int }

let marker () = { commits = 0; sim = 0 }

let mark mk ~commits =
  mk.commits <- commits;
  mk.sim <- Sched.now ()

(* A fixed piece of allocating, hashing, pointer-chasing work owned by the
   benchmark, the yardstick for host speed.  Other tenants of a shared
   host slow the simulator by up to 2x for seconds at a time; they slow
   this loop alike, so dividing by it cancels most of that drift while a
   change to the program still shows in full.  Returns host CPU seconds. *)
let reference_s () =
  let t0 = cpu_s () in
  let h = Hashtbl.create 16 in
  for i = 0 to 39_999 do
    Hashtbl.replace h (i * 7919) (Array.make 4 i)
  done;
  let acc = ref 0 in
  for i = 0 to 79_999 do
    match Hashtbl.find_opt h (i * 3) with Some a -> acc := !acc + a.(0) | None -> ()
  done;
  ignore (Sys.opaque_identity (List.sort compare (List.init 20_000 (fun i -> i * 104729 mod 100_003))));
  ignore (Sys.opaque_identity !acc);
  cpu_s () -. t0

(* [reference_s] on an undisturbed 2-vCPU Intel Xeon VM: the scale that
   turns calibrated host time back into microseconds. *)
let reference_nominal_s = 0.02

(* Host cost of one sub-run: its set-up and its timed window. *)
type host = {
  ref0 : float;  (* reference time when the sub-run started *)
  cpu0 : float;
  mutable setup_s : float;
      (* calibrated host CPU seconds from the start to the timed window *)
  mutable per_tx : float list;
      (* calibrated host CPU us per completed transaction, one per slice *)
  mutable words : float;  (* OCaml minor words allocated in the window *)
  mutable txs : int;  (* transactions completed in the window *)
}

(* Start a sub-run's host clock, before any of its set-up work. *)
let host () =
  let ref0 = reference_s () in
  { ref0; cpu0 = cpu_s (); setup_s = 0.0; per_tx = []; words = 0.0; txs = 0 }

(* Run a timed window of [cycles] simulated cycles as [slices] slices.  The
   reference loop runs before the window and between slices (it takes no
   simulated time); the set-up and each slice's host CPU per transaction
   are scaled by the mean of the reference times on either side. *)
let timed_window h ~cycles ~slices ~completed =
  let c = cpu_s () in
  let before = ref (reference_s ()) in
  h.setup_s <- (c -. h.cpu0) *. reference_nominal_s /. ((h.ref0 +. !before) /. 2.0);
  for i = 1 to slices do
    let c0 = cpu_s () and w0 = Gc.minor_words () and n0 = completed () in
    Sched.advance ((cycles * i / slices) - (cycles * (i - 1) / slices));
    let c1 = cpu_s () and w1 = Gc.minor_words () and n1 = completed () in
    let after = reference_s () in
    h.words <- h.words +. (w1 -. w0);
    h.txs <- h.txs + (n1 - n0);
    if n1 > n0 then begin
      let raw = 1e6 *. (c1 -. c0) /. float_of_int (n1 - n0) in
      h.per_tx <- (raw *. reference_nominal_s /. ((!before +. after) /. 2.0)) :: h.per_tx
    end;
    before := after
  done

(* ------------------------------------------------------------------ *)
(* Public counters                                                     *)
(* ------------------------------------------------------------------ *)

(* One engine's public counter sources, whichever functor instance it
   comes from. *)
type probe = {
  engine_stats : unit -> Stats.t;
  tm_stats : unit -> Stats.t;
  shadow_stats : unit -> Stats.t option;
  nvm : Nvm.t;
}

type snap = {
  eng : (string * int) list;
  tm : (string * int) list;
  shadow : (string * int) list;
  bytes : int;
  ops : int;
}

let snap_one p =
  {
    eng = Stats.to_list (p.engine_stats ());
    tm = Stats.to_list (p.tm_stats ());
    shadow = (match p.shadow_stats () with Some s -> Stats.to_list s | None -> []);
    bytes = Nvm.persisted_write_bytes p.nvm;
    ops = Nvm.persist_ops p.nvm;
  }

let snap probes = Array.map snap_one probes

let get l k = Option.value (List.assoc_opt k l) ~default:0

(* Sum over engines of a counter's growth between two snapshots. *)
let delta field a b k =
  let s = ref 0 in
  Array.iteri (fun i x -> s := !s + (get (field b.(i)) k - get (field x) k)) a;
  !s

(* The counter-derived per-layer metrics over a window of [cycles]
   simulated cycles in which [txs] transactions completed. *)
let counter_metrics ~probes ~before ~after ~txs ~cycles =
  let e = delta (fun s -> s.eng) before after in
  let t = delta (fun s -> s.tm) before after in
  let sh = delta (fun s -> s.shadow) before after in
  let bytes = ref 0 and ops = ref 0 and util = ref 0.0 in
  Array.iteri
    (fun i p ->
      let b = after.(i).bytes - before.(i).bytes in
      bytes := !bytes + b;
      ops := !ops + (after.(i).ops - before.(i).ops);
      let gbps = (Nvm.config p.nvm).Dudetm_nvm.Pmem_config.bandwidth_gbps in
      util := Float.max !util (Measure.bw_util ~bytes:b ~gbps ~cycles ~ghz:Cycles.ghz))
    probes;
  let commits = t "commits" in
  let combine_in = e "combine_writes_in" in
  [
    m "engine.throttle_cycles_per_tx" "cycles"
      (Measure.ratio (e "bp_throttle_cycles" + e "pace_cycles") txs);
    m "tm.commit_ratio" "ratio" (Measure.ratio commits (commits + t "aborts"));
    m "tm.backoff_cycles_per_tx" "cycles" (Measure.ratio (t "backoff_cycles") txs);
    m "tm.writes_per_tx" "count" (Measure.ratio (t "writes") txs);
    m "snapshot.retry_ratio" "ratio" (Measure.ratio (t "snapshot_retries") (t "snapshot_begins"));
    m "log.entries_per_record" "count" (Measure.ratio (e "log_entries") (e "flush_records"));
    m "log.deadline_flush_frac" "ratio"
      (Measure.ratio (e "batch_deadline_flushes") (e "flush_records"));
    m "log.combine_ratio" "ratio"
      (if combine_in = 0 then 1.0 else Measure.ratio (e "combine_writes_out") combine_in);
    m "log.flush_bytes_per_tx" "B" (Measure.ratio (e "flush_payload_bytes") txs);
    m "nvm.bytes_per_tx" "B" (Measure.ratio !bytes txs);
    m "nvm.persist_ops_per_tx" "count" (Measure.ratio !ops txs);
    m "nvm.bw_util" "ratio" !util;
    m "shadow.faults_per_ktx" "count" (1000.0 *. Measure.ratio (sh "faults") txs);
    m "shadow.evictions_per_ktx" "count" (1000.0 *. Measure.ratio (sh "evictions") txs);
    m "shadow.swapin_waits_per_ktx" "count" (1000.0 *. Measure.ratio (sh "swapin_waits") txs);
  ]

(* Element-wise mean of the same metrics measured over several windows. *)
let mean_metrics = function
  | [] -> []
  | first :: _ as all ->
    let k = float_of_int (List.length all) in
    List.map
      (fun (mt : metric) ->
        let total =
          List.fold_left
            (fun acc l -> acc +. (List.find (fun (x : metric) -> x.name = mt.name) l).value)
            0.0 all
        in
        { mt with value = total /. k })
      first

(* ------------------------------------------------------------------ *)
(* Closed-loop sub-runs                                                *)
(* ------------------------------------------------------------------ *)

(* One closed-loop sub-run: fresh devices, a warm-up, a timed window, an
   unacknowledged tail, the power cut and the recovery. *)
type sub = {
  acks : Measure.samples;  (* write began -> durable ack, began in the window *)
  reads : Measure.samples;  (* read-only calls begun in the window *)
  window : int;  (* simulated cycles of the timed window *)
  acked : int;  (* durable acks inside the window *)
  acked_in_limit : int;  (* ... of which within the write-ack limit *)
  recoveries : int list;
      (* power on -> attach -> restart -> first acks, one per power cut *)
  attach : int;
  counters : metric list;
  user_bytes : int;  (* payload bytes written by transactions in the window *)
  nvm_bytes : int;  (* bytes persisted on all devices in the window *)
  setup_s : float;
  host : host;
}

let pool subs f =
  let s = Measure.samples () in
  List.iter
    (fun sub ->
      let x = f sub in
      Array.iter (Measure.add s) (Measure.to_sorted x))
    subs;
  s

(* End-to-end metrics of a closed-loop workload pooled over its sub-runs;
   [slo_rate_mtps] is the rate of durable acks within the limit. *)
let closed_loop ~subs ~traced ~host_layer =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 subs in
  let fsum f = List.fold_left (fun acc s -> acc +. f s) 0.0 subs in
  let acks = pool subs (fun s -> s.acks) and reads = pool subs (fun s -> s.reads) in
  let window = sum (fun s -> s.window) in
  let attempted = Measure.count acks + Measure.count reads in
  let sim =
    [
      m ~n:(sum (fun s -> s.acked)) "durable_mtps" "Mtx/s"
        (mtps ~count:(sum (fun s -> s.acked)) ~cycles:window);
      m ~n:(sum (fun s -> s.acked)) "slo_rate_mtps" "Mtx/s"
        (mtps ~count:(sum (fun s -> s.acked_in_limit)) ~cycles:window);
      pct_us "write_ack_p50_us" acks 50.0;
      pct_us "write_ack_p99_us" acks 99.0;
      pct_us "read_p50_us" reads 50.0;
      pct_us "read_p99_us" reads 99.0;
      (* Every transaction commits and every timed write is acked, or the
         sub-run fails its check. *)
      m ~n:attempted "ok_frac" "ratio" 1.0;
      m "nvm_write_amp" "B/B"
        (Measure.write_amp ~nvm_bytes:(sum (fun s -> s.nvm_bytes))
           ~user_bytes:(sum (fun s -> s.user_bytes)));
      (* A mean, not a median: a recovery's time depends on how much log
         the cut left to replay, and the median of a few dozen such values
         jumps between seeds. *)
      (let all = List.concat_map (fun s -> s.recoveries) subs in
       m ~n:(List.length all) "recovery_us" "us"
         (us (List.fold_left ( + ) 0 all) /. float_of_int (List.length all)));
    ]
    @ mean_metrics (List.map (fun s -> s.counters) subs)
  in
  {
    sim;
    traced;
    host_layer;
    setups_s = List.map (fun s -> s.setup_s) subs;
    host_us_per_tx = List.concat_map (fun s -> s.host.per_tx) subs;
    alloc_words_per_tx = fsum (fun s -> s.host.words) /. float_of_int (sum (fun s -> s.host.txs));
    attempted;
    failed = 0;
  }

let attach_us subs = Measure.median (List.map (fun s -> us s.attach) subs)
