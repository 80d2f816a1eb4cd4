(* serve-mixed: the serving front end over 8 shards, open loop at three
   fixed offered rates.

   4 tenants x 16 sessions issue single-key requests (Zipf 0.99 keys, 50%
   reads) on the benchmark's own Poisson schedule.  Each session is a
   client with [slots_per_session] descriptors: when all are in flight the
   next request waits for one, and that wait counts in its latency, which
   runs from when the request was due (not from [submit]) to the reply the
   pipeline stamps at the durable ack.  The rates are fixed constants, not
   fractions of a capacity measured in the same run, so a change that
   moves capacity is judged at the same load.

   The two lower rates drain and then check that every key holds the
   payload of its highest-tid acked write.  The top rate cuts power with
   the pipeline un-drained, recovers, and checks that every key holds its
   last acked payload or a later unacknowledged one. *)

open Common
module Rng = Dudetm_sim.Rng
module Config = Dudetm_core.Config
module Tenant_mix = Dudetm_workloads.Tenant_mix
module Serve = Dudetm_serve.Serve
module Srv = Dudetm_serve.Serve_load.Srv

let nshards = 8

let ntenants = 4

let sessions = 16  (* per tenant *)

let keys_per_tenant = 1024

(* Offered rates (M requests per simulated second): 0.3, 0.63 and 1.0 x
   the 8-shard closed-loop capacity of 126 M/s measured by the serve
   bench's calibration leg.  The middle rate stays below 0.7 x because at
   88 M/s rare Poisson bursts trip the admission gate for some seeds (a
   few dozen sheds in 75k requests), which would make [slo_rate_mtps]
   flip between rates from seed to seed. *)
let rates = [ ("38mtps", 38.0); ("80mtps", 80.0); ("126mtps", 126.0) ]

let warmup_cycles = 300_000

(* Writes offered at once to the restarted front end after the power cut;
   below the admission gate's trip depth, so none is shed. *)
let restart_burst = 40

let window_cycles = 3_000_000

(* Host-time slices per timed window. *)
let slices = 10

(* Write-ack p99 limit for [slo_rate_mtps] (simulated us, from due). *)
let limit_us = 10.0

let scfg = Serve.default_config

let cfg = Dudetm_serve.Serve_load.engine_cfg ~workers:scfg.Serve.workers_per_shard ()

let slot_of_key key = 64 + (8 * Int64.to_int key)

type kind = Kread | Kwrite of { key : int64; payload : int64 }

(* A request in flight on one of a session's descriptors. *)
type slot = {
  d : Srv.desc;
  mutable busy : bool;
  mutable due : int;
  mutable submitted : int;
  mutable timed : bool;
  mutable kind : kind;
  mutable root : int;
  mutable req : int;
}

type leg = {
  name : string;
  rate : float;
  acks : Measure.samples;  (* timed writes: due -> durable ack *)
  reads : Measure.samples;  (* timed reads: due -> reply *)
  late : Measure.samples;  (* timed requests: due -> actual submit *)
  attempted : int;
  shed : int;
  aborted : int;
  ok_in_window : int;  (* replies stamped inside the timed window *)
  backlog_grew : bool;
  counters : metric list;
  user_bytes : int;
  nvm_bytes : int;
  setup_s : float;
  host : host;
  gate_trips : int;
  depth_hwm : int;
  recovery : (int * int) option;  (* recovery, of which attach *)
}

let probes sh =
  Array.init nshards (fun s ->
      let e = Srv.Sh.engine sh s in
      {
        engine_stats = (fun () -> Srv.Engine.stats e);
        tm_stats = (fun () -> Dudetm_tm.Tinystm.stats (Srv.Engine.tm e));
        shadow_stats = (fun () -> Srv.Engine.shadow_stats e);
        nvm = Srv.Sh.nvm sh s;
      })

let run_leg ~spans ~seed ~cut (name, rate) =
  (* Start every sub-run from a collected heap, so garbage left by the
     previous one does not land in this one's host timings. *)
  Gc.full_major ();
  let h = host () in
  let mix = Tenant_mix.create ~theta:0.99 ~ro_permille:500 ~ntenants ~keys_per_tenant ~nshards () in
  let sh = Srv.Sh.create ~nshards cfg in
  let app =
    {
      Srv.shard_of = (fun key -> Tenant_mix.shard_of mix key);
      write = (fun tx ~shard ~key ~payload -> Srv.Sh.write tx ~shard (slot_of_key key) payload);
      read = (fun tx ~shard ~key -> Srv.Sh.read tx ~shard (slot_of_key key));
    }
  in
  let srv = Srv.create ~scfg ~app ~ntenants sh in
  let probes = probes sh in
  let nkeys = ntenants * keys_per_tenant in
  (* Per key: the highest acked tid and its payload; unacked payloads. *)
  let acked_tid = Array.make nkeys 0 and acked_val = Array.make nkeys 0L in
  let unacked = Hashtbl.create 1024 in
  let acks = Measure.samples () and reads = Measure.samples () in
  let late = Measure.samples () in
  let attempted = ref 0 and shed = ref 0 and aborted = ref 0 in
  let outstanding = ref 0 and ok_in_window = ref 0 in
  let backlog_open = ref 0 and backlog_close = ref 0 in
  let stop = ref false and finished = ref 0 in
  let open_mk = marker () and close_mk = marker () in
  let before = ref [||] and after = ref [||] in
  let w_open = ref 0 and w_close = ref 0 in
  let t_open = warmup_cycles and t_close = warmup_cycles + window_cycles in
  let total_sessions = ntenants * sessions in
  let mean_gap = float_of_int total_sessions *. Cycles.per_second /. (rate *. 1e6) in
  let complete sl t_reply rep =
    sl.busy <- false;
    if sl.due <= t_open && t_open < t_reply then incr backlog_open;
    if sl.due <= t_close && t_close < t_reply then incr backlog_close;
    let ok = match rep with Serve.R_executed _ | Serve.R_value _ -> true | _ -> false in
    if ok && t_reply >= t_open && t_reply < t_close then incr ok_in_window;
    (match (rep, sl.kind) with
    | Serve.R_executed { tid; _ }, Kwrite { key; payload } ->
      let k = Int64.to_int key in
      if tid > acked_tid.(k) then begin
        acked_tid.(k) <- tid;
        acked_val.(k) <- payload
      end;
      Hashtbl.remove unacked payload;
      if sl.timed then Measure.add acks (t_reply - sl.due)
    | Serve.R_value _, Kread -> if sl.timed then Measure.add reads (t_reply - sl.due)
    | Serve.R_overloaded, Kwrite { payload; _ } ->
      Hashtbl.remove unacked payload;
      if sl.timed then incr shed
    | Serve.R_aborted, _ -> if sl.timed then incr aborted
    | _ -> fail "serve-mixed: reply does not match its request");
    if sl.timed then decr outstanding
  in
  let harvest slots =
    Array.iter
      (fun sl ->
        if sl.busy then
          match Srv.reply sl.d with
          | exception Serve.Descriptor_in_flight _ -> ()
          | rep ->
            let t_reply = sl.submitted + Srv.latency sl.d in
            if Spans.enabled spans then begin
              ignore
                (Spans.record spans ~parent:sl.root ~req:sl.req "serve.await"
                   ~sim0:sl.submitted ~sim1:t_reply);
              Spans.leave_at spans sl.root ~sim1:t_reply
            end;
            complete sl t_reply rep)
      slots
  in
  let session tenant sid () =
    let rng = Rng.create (seed + (tenant * 131) + (sid * 7919)) in
    let slots =
      Array.init scfg.Serve.slots_per_session (fun _ ->
          {
            d = Srv.make_desc ~tenant ~session:sid (Serve.Read { key = 0L });
            busy = false;
            due = 0;
            submitted = 0;
            timed = false;
            kind = Kread;
            root = Spans.none;
            req = 0;
          })
    in
    let free () = Array.exists (fun sl -> not sl.busy) slots in
    let returned () =
      Array.exists
        (fun sl ->
          sl.busy
          && match Srv.reply sl.d with exception Serve.Descriptor_in_flight _ -> false | _ -> true)
        slots
    in
    let due = ref 0.0 and n = ref 0 in
    while not !stop do
      incr n;
      let u = Rng.float rng in
      due := !due +. (-.log (1.0 -. u) *. mean_gap);
      let due_c = int_of_float !due in
      let now = Sched.now () in
      if due_c > now then Sched.advance (due_c - now);
      harvest slots;
      if not (free ()) then begin
        Sched.wait_until ~label:"bench session window" returned;
        harvest slots
      end;
      let sl =
        let rec first i = if slots.(i).busy then first (i + 1) else slots.(i) in
        first 0
      in
      let key = Tenant_mix.sample_key mix ~tenant rng in
      let op, kind =
        if Tenant_mix.is_read mix ~tenant rng then (Serve.Read { key }, Kread)
        else
          let payload = Rng.next_int64 rng in
          (Serve.Write { key; payload }, Kwrite { key; payload })
      in
      Srv.set_op sl.d op;
      let timed = due_c >= t_open && due_c < t_close in
      sl.due <- due_c;
      sl.timed <- timed;
      sl.kind <- kind;
      if timed then begin
        incr attempted;
        incr outstanding
      end;
      (match kind with Kwrite { payload; _ } -> Hashtbl.replace unacked payload key | Kread -> ());
      let g = Sched.global_now () in
      sl.submitted <- g;
      if timed then Measure.add late (g - due_c);
      let req = (tenant lsl 40) lor (sid lsl 32) lor !n in
      sl.req <- req;
      sl.root <- Spans.enter spans ~sim0:due_c ~req "request";
      ignore (Spans.record spans ~parent:sl.root ~req "serve.gen_late" ~sim0:due_c ~sim1:g);
      let sp = Spans.enter spans ~parent:sl.root ~req "serve.submit" in
      let accepted = Srv.submit srv sl.d in
      Spans.leave spans sp;
      if accepted then sl.busy <- true
      else begin
        Spans.leave_at spans sl.root ~sim1:g;
        complete sl g Serve.R_overloaded
      end
    done;
    Sched.wait_until ~label:"bench session tail" (fun () ->
        Array.for_all
          (fun sl ->
            (not sl.busy)
            || match Srv.reply sl.d with exception Serve.Descriptor_in_flight _ -> false | _ -> true)
          slots);
    harvest slots;
    incr finished
  in
  let stat k = Dudetm_sim.Stats.get (Srv.stats srv) k in
  (try
     ignore
       (Sched.run (fun () ->
            Srv.start srv;
            for tenant = 0 to ntenants - 1 do
              for sid = 0 to sessions - 1 do
                ignore (Sched.spawn (Printf.sprintf "bench-client-%d-%d" tenant sid) (session tenant sid))
              done
            done;
            Sched.advance t_open;
            mark open_mk ~commits:(stat "replies");
            before := snap probes;
            w_open := stat "writes";
            timed_window h ~cycles:window_cycles ~slices ~completed:(fun () -> stat "replies");
            mark close_mk ~commits:(stat "replies");
            after := snap probes;
            w_close := stat "writes";
            Sched.wait_until ~label:"bench timed replies" (fun () -> !outstanding = 0);
            if cut then raise Power_cut;
            stop := true;
            Sched.wait_until ~label:"bench sessions done" (fun () -> !finished = total_sessions);
            Srv.stop srv))
   with Power_cut -> ());
  let check read ~crashed =
    for k = 0 to nkeys - 1 do
      let key = Int64.of_int k in
      let v = read (Tenant_mix.shard_of mix key) (slot_of_key key) in
      let later = Hashtbl.find_opt unacked v = Some key in
      if v <> acked_val.(k) && not (crashed && later) then
        fail "serve-mixed %s: key %d holds %Ld, last acked write (tid %d) wrote %Ld" name k v
          acked_tid.(k) acked_val.(k)
    done
  in
  let recovery =
    if not cut then begin
      check (fun s off -> Srv.Engine.heap_read_u64 (Srv.Sh.engine sh s) off) ~crashed:false;
      None
    end
    else begin
      let devices = Array.init nshards (Srv.Sh.nvm sh) in
      Array.iter (fun d -> Nvm.crash ~evict_fraction:0.0 d) devices;
      (* Recovery as a user sees it: power on, attach, check the acked
         work, restart the front end, and have a burst of writes (one per
         client of the first [restart_burst] sessions) durably acked. *)
      let attach = ref 0 in
      let cycles =
        Sched.run (fun () ->
            let sp = Spans.enter spans ~req:0 "shard.attach" in
            let sh2, _ = Srv.Sh.attach ~nshards cfg devices in
            Spans.leave spans sp;
            attach := Sched.now ();
            check (fun s off -> Srv.Engine.heap_read_u64 (Srv.Sh.engine sh2 s) off) ~crashed:true;
            let srv2 = Srv.create ~scfg ~app ~ntenants sh2 in
            Srv.start srv2;
            let rng = Rng.create (seed + 15485863) in
            let left = ref restart_burst in
            for i = 0 to restart_burst - 1 do
              let tenant = i mod ntenants in
              let key = Tenant_mix.sample_key mix ~tenant rng in
              let d = Srv.make_desc ~tenant ~session:i (Serve.Write { key; payload = Rng.next_int64 rng }) in
              ignore
                (Sched.spawn (Printf.sprintf "bench-restart-%d" i) (fun () ->
                     if not (Srv.submit srv2 d) then fail "serve-mixed: write shed after restart";
                     (match Srv.await d with
                     | Serve.R_executed _ -> ()
                     | _ -> fail "serve-mixed: write after restart not executed");
                     decr left))
            done;
            Sched.wait_until ~label:"bench restart acks" (fun () -> !left = 0))
      in
      Some (cycles, !attach)
    end
  in
  let window = close_mk.sim - open_mk.sim in
  let replies = close_mk.commits - open_mk.commits in
  {
    name;
    rate;
    acks;
    reads;
    late;
    attempted = !attempted;
    shed = !shed;
    aborted = !aborted;
    ok_in_window = !ok_in_window;
    backlog_grew =
      Measure.backlog_grew ~at_start:!backlog_open ~at_end:!backlog_close
        ~window:(total_sessions * scfg.Serve.slots_per_session);
    counters = counter_metrics ~probes ~before:!before ~after:!after ~txs:replies ~cycles:window;
    user_bytes = 8 * (!w_close - !w_open);
    nvm_bytes =
      Array.fold_left ( + ) 0 (Array.mapi (fun i s -> s.bytes - !before.(i).bytes) !after);
    setup_s = h.setup_s;
    host = h;
    gate_trips = Dudetm_serve.Admission.trips (Srv.gate srv);
    depth_hwm = Srv.depth_hwm srv;
    recovery;
  }

let run ~seed ~spans =
  let top = List.length rates - 1 in
  let legs = List.mapi (fun i r -> run_leg ~spans ~seed:(seed + (i * 1_000_003)) ~cut:(i = top) r) rates in
  let leg i = List.nth legs i in
  let mid = leg 1 and hi = leg top in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 legs in
  let fsum f = List.fold_left (fun acc l -> acc +. f l) 0.0 legs in
  let p99 l = Option.map us (Measure.percentile l.acks 99.0) in
  let points =
    List.map
      (fun l ->
        {
          Measure.rate_mtps = l.rate;
          goodput_mtps = mtps ~count:l.ok_in_window ~cycles:window_cycles;
          ack_p99_us = p99 l;
          shed = l.shed;
          failed = l.aborted;
          backlog_grew = l.backlog_grew;
        })
      legs
  in
  let slo_n =
    match Measure.slo_point ~limit_us points with
    | Some p -> (List.find (fun l -> l.rate = p.Measure.rate_mtps) legs).ok_in_window
    | None -> 0
  in
  let attempted = sum (fun l -> l.attempted) in
  let failed = sum (fun l -> l.shed + l.aborted) in
  let counters = mean_metrics (List.map (fun l -> l.counters) legs) in
  let per_rate =
    List.concat_map
      (fun l ->
        [
          pct_us ("serve.ack_p99_us." ^ l.name) l.acks 99.0;
          pct_us ("serve.read_p99_us." ^ l.name) l.reads 99.0;
          m ~n:l.attempted ("serve.shed_frac." ^ l.name) "ratio" (Measure.ratio l.shed l.attempted);
        ])
      legs
  in
  let sim =
    [
      m ~n:hi.ok_in_window "durable_mtps" "Mtx/s" (mtps ~count:hi.ok_in_window ~cycles:window_cycles);
      m ~n:slo_n "slo_rate_mtps" "Mtx/s" (Measure.slo_rate ~limit_us points);
      pct_us "write_ack_p50_us" mid.acks 50.0;
      pct_us "write_ack_p99_us" mid.acks 99.0;
      pct_us "read_p50_us" mid.reads 50.0;
      pct_us "read_p99_us" mid.reads 99.0;
      m ~n:attempted "ok_frac" "ratio" (1.0 -. Measure.ratio failed attempted);
      m "nvm_write_amp" "B/B"
        (Measure.write_amp ~nvm_bytes:(sum (fun l -> l.nvm_bytes)) ~user_bytes:(sum (fun l -> l.user_bytes)));
      m ~n:1 "recovery_us" "us" (us (fst (Option.get hi.recovery)));
    ]
    @ per_rate
    @ [
        m "serve.gate_trips" "count" (float_of_int (sum (fun l -> l.gate_trips)));
        m "serve.depth_hwm" "count" (float_of_int (List.fold_left (fun a l -> max a l.depth_hwm) 0 legs));
        pct_us "serve.gen_late_p99_us" hi.late 99.0;
      ]
    @ counters
  in
  let traced, host_layer =
    if not (Spans.enabled spans) then ([], [])
    else
      let ns, k = Spans.host_total spans "serve.submit" in
      ( [ m ~n:1 "shard.attach_us" "us" (us (snd (Option.get hi.recovery))) ],
        [ m ~n:k "serve.submit_host_ns" "ns" (Measure.ratio ns k) ] )
  in
  {
    sim;
    traced;
    host_layer;
    setups_s = List.map (fun l -> l.setup_s) legs;
    host_us_per_tx = List.concat_map (fun l -> l.host.per_tx) legs;
    alloc_words_per_tx = fsum (fun l -> l.host.words) /. float_of_int (sum (fun l -> l.host.txs));
    attempted;
    failed = sum (fun l -> l.aborted);
  }
