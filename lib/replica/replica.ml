module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Wire = Dudetm_log.Wire
module Config = Dudetm_core.Config
module Dudetm = Dudetm_core.Dudetm
module Trace = Dudetm_trace.Trace

module Make (Tm : Dudetm_tm.Tm_intf.S) = struct
  module Engine = Dudetm.Make (Tm)

  exception Replica_lag of string

  let () =
    Printexc.register_printer (function
      | Replica_lag msg -> Some (Printf.sprintf "Replica_lag %S" msg)
      | _ -> None)

  type ack = Quorum | Degraded_quorum of string

  type health = Healthy | Degraded of string

  type config = {
    nreplicas : int;
    link : Link.config;
    retry_base : int;
    retry_cap : int;
    window : int;
    max_retained : int;
  }

  let default_config ?(nreplicas = 3) () =
    let link = Link.default_config in
    {
      nreplicas;
      link;
      (* The retransmit timer must outlast a healthy round trip (two
         latencies plus both ends' poll steps), then back off like the
         PR 3 daemon supervisor: doubling per silent round, capped. *)
      retry_base = 8 * link.Link.latency;
      retry_cap = 64 * link.Link.latency;
      window = 8;
      (* A partitioned follower must not pin unbounded primary DRAM: past
         this many retained batches the laggard is cut off instead. *)
      max_retained = 4096;
    }

  (* A sealed batch retained (in DRAM) for retransmission. *)
  type shipped = {
    sp_seq : int;
    sp_lo : int;
    sp_hi : int;
    sp_payload : bytes;
  }

  (* One follower plus the primary's view of it. *)
  type rep = {
    idx : int;
    eng : Engine.t;
    down : Link.t;  (* primary -> replica: Batch / Watermark frames *)
    up : Link.t;  (* replica -> primary: cumulative Ack frames *)
    known_acked : int ref;  (* replica side: replay-gate watermark *)
    pendingq : (int, shipped) Hashtbl.t;  (* replica side: out-of-order, by lo *)
    mutable deferred : shipped option;  (* next in line, awaiting ring space *)
    mutable ingested_seq : int;  (* replica side: last ring seq ingested *)
    mutable last_acked : int;  (* replica side: durable ID last ack'd *)
    mutable reack : bool;  (* replica side: saw a dup; re-send the ack *)
    (* Primary-side view, fed by this replica's cumulative acks: *)
    mutable acked_hi : int;  (* its durable ID (the quorum vector entry) *)
    mutable retries : int;  (* consecutive silent retransmit rounds *)
    mutable next_retry : int;  (* timer deadline; 0 = unarmed *)
    mutable cut_off : bool;  (* lagged past max_retained; needs a resync *)
  }

  type t = {
    cfg : Config.t;
    rcfg : config;
    prim : Engine.t;
    reps : rep array;
    shipments : shipped Queue.t;  (* retained until acked by every replica *)
    mutable acked_watermark : int;  (* quorum watermark, monotone *)
    mutable last_broadcast : int;
    mutable last_broadcast_at : int;
    mutable degraded : string option;
    mutable lag_alarm : string option;  (* sticky: set when the cap trips *)
    retry_rng : Rng.t;
    stats : Stats.t;
    mutable stopped : bool;
  }

  let quorum_needed ~nreplicas = (nreplicas + 2) / 2

  let quorum t = quorum_needed ~nreplicas:(Array.length t.reps)

  (* Replica acks needed beyond the primary's own seal. *)
  let acks_needed t = quorum t - 1

  let create ?rcfg cfg =
    let rcfg = match rcfg with Some r -> r | None -> default_config () in
    if rcfg.nreplicas < 1 then invalid_arg "Replica.create: nreplicas < 1";
    if not cfg.Config.combine then
      invalid_arg "Replica.create: the wire unit is the combined group-commit record";
    let prim = Engine.create ~nvm_label:"primary" cfg in
    let reps =
      Array.init rcfg.nreplicas (fun i ->
          let label = Printf.sprintf "replica%d" i in
          {
            idx = i;
            eng = Engine.create ~nvm_label:label cfg;
            down =
              Link.create ~label:(Printf.sprintf "ship:%s" label)
                { rcfg.link with Link.seed = rcfg.link.Link.seed + (2 * i) };
            up =
              Link.create ~label:(Printf.sprintf "ack:%s" label)
                { rcfg.link with Link.seed = rcfg.link.Link.seed + (2 * i) + 1 };
            known_acked = ref 0;
            pendingq = Hashtbl.create 64;
            deferred = None;
            ingested_seq = -1;
            last_acked = 0;
            reack = false;
            acked_hi = 0;
            retries = 0;
            next_retry = 0;
            cut_off = false;
          })
    in
    let t =
      {
        cfg;
        rcfg;
        prim;
        reps;
        shipments = Queue.create ();
        acked_watermark = 0;
        last_broadcast = 0;
        last_broadcast_at = 0;
        degraded = None;
        lag_alarm = None;
        retry_rng = Rng.create (((cfg.Config.seed * 37) + 0x5e91) land max_int);
        stats = Stats.create ();
        stopped = false;
      }
    in
    (* Durable-only snapshot readers on the primary pin at the *quorum*
       watermark, not the primary-local durable ID: a value is readable in
       durable mode only once it would survive a failover (the promotion
       truncates to the quorum prefix).  The thunk is a pure field read,
       as the snapshot pin wait requires. *)
    Engine.set_ro_watermark prim (Some (fun () -> t.acked_watermark));
    t

  (* ------------------------------------------------------------------ *)
  (* Quorum watermark                                                    *)
  (* ------------------------------------------------------------------ *)

  (* acked = min(primary durable, (q-1)-th largest replica durable): the
     transaction is sealed on the primary plus at least q-1 replicas.  The
     Skip_quorum_gate mutant (checker self-test) acknowledges at the
     primary-local seal — exactly the bug the campaign must catch. *)
  let recompute t =
    let d = Engine.durable_id t.prim in
    let wm =
      if t.cfg.Config.fault = Config.Skip_quorum_gate then d
      else begin
        let need = acks_needed t in
        if need = 0 then d
        else begin
          let his = Array.map (fun r -> r.acked_hi) t.reps in
          Array.sort (fun a b -> compare b a) his;
          min d his.(need - 1)
        end
      end
    in
    if wm > t.acked_watermark then begin
      t.acked_watermark <- wm;
      (* The primary's durable-only snapshots pin at this watermark. *)
      Sched.ring (Engine.durability_bell t.prim);
      Trace.instant ~cat:"replica" "ack" wm
    end;
    if t.degraded <> None && t.acked_watermark >= d then t.degraded <- None;
    (* Retire batches every replica still being served has acknowledged;
       a cut-off replica no longer pins retention (that is the point of
       cutting it off). *)
    let min_hi =
      Array.fold_left
        (fun acc r -> if r.cut_off then acc else min acc r.acked_hi)
        max_int t.reps
    in
    let rec prune () =
      match Queue.peek_opt t.shipments with
      | Some s when s.sp_hi <= min_hi ->
        ignore (Queue.pop t.shipments);
        prune ()
      | _ -> ()
    in
    prune ()

  let acked t = t.acked_watermark

  (* Read-only snapshot on the primary.  With [~durable:true] the epoch
     pins at the quorum watermark installed above, so every value read is
     failover-safe; beware that under a full partition the watermark
     stalls and a pinned extension can wait until the links heal (writers
     hit the bounded [ack_timeout] instead — snapshot readers running
     alongside a healthy ack daemon never deadlock the scheduler, they
     just wait). *)
  let atomically_ro ?durable t ~thread f =
    Engine.atomically_ro ?durable t.prim ~thread f

  (* ------------------------------------------------------------------ *)
  (* Primary side: ship, ack intake, retransmit                          *)
  (* ------------------------------------------------------------------ *)

  let send_batch t r s =
    Link.send r.down
      (Wire.encode
         (Wire.Batch
            {
              seq = s.sp_seq;
              lo = s.sp_lo;
              hi = s.sp_hi;
              acked = t.acked_watermark;
              payload = s.sp_payload;
            }))

  (* Bounded retention: the retransmit queue may not outgrow
     [max_retained].  When it would, the oldest batches are dropped and
     any replica that still needed them is cut off — retransmission can
     no longer heal it (a real deployment would resync it from a
     checkpoint), and the condition is reported as a sticky
     [Replica_lag]-shaped diagnostic through {!health} instead of
     pinning unbounded primary DRAM. *)
  let enforce_retention t =
    let cap = t.rcfg.max_retained in
    if cap > 0 then
      while Queue.length t.shipments > cap do
        let s = Queue.pop t.shipments in
        Stats.incr t.stats "retention_drops";
        Array.iter
          (fun r ->
            if (not r.cut_off) && r.acked_hi < s.sp_hi then begin
              r.cut_off <- true;
              Stats.incr t.stats "replicas_cut_off";
              Trace.instant ~cat:"replica" "cut_off" r.idx;
              t.lag_alarm <-
                Some
                  (Printf.sprintf
                     "Replica_lag: replica %d cut off at acked=%d — batch [%d,%d] \
                      dropped by the %d-batch retransmit retention; resync required"
                     r.idx r.acked_hi s.sp_lo s.sp_hi cap)
            end)
          t.reps
      done

  let on_ship t (sh : Dudetm.shipment) =
    Trace.span ~cat:"replica" "ship" @@ fun () ->
    recompute t;
    let s =
      {
        sp_seq = sh.Dudetm.ship_seq;
        sp_lo = sh.Dudetm.ship_lo;
        sp_hi = sh.Dudetm.ship_hi;
        sp_payload = sh.Dudetm.ship_payload;
      }
    in
    Queue.push s t.shipments;
    enforce_retention t;
    Stats.incr t.stats "batches_shipped";
    (* A cut-off replica would only hoard the new frames out of order. *)
    Array.iter (fun r -> if not r.cut_off then send_batch t r s) t.reps

  let backoff t k =
    let ceiling = min t.rcfg.retry_cap (t.rcfg.retry_base lsl min k 16) in
    let half = max 1 ((ceiling + 1) / 2) in
    half + Rng.int t.retry_rng half

  (* Resend the lowest unacked batches to every replica whose timer has
     expired, with capped exponential backoff per silent round. *)
  let retransmit t =
    let now = Sched.now () in
    Array.iter
      (fun r ->
        let behind =
          (not r.cut_off)
          &&
          match Queue.peek_opt t.shipments with
          | None -> false
          | Some _ ->
            Queue.fold (fun acc s -> acc || s.sp_hi > r.acked_hi) false t.shipments
        in
        if not behind then begin
          r.retries <- 0;
          r.next_retry <- 0
        end
        else if r.next_retry = 0 then
          (* Arm: give the in-flight copy a full round trip first. *)
          r.next_retry <- now + backoff t 0
        else if now >= r.next_retry then begin
          let sent = ref 0 in
          (try
             Queue.iter
               (fun s ->
                 if s.sp_hi > r.acked_hi then begin
                   if !sent >= t.rcfg.window then raise Exit;
                   send_batch t r s;
                   incr sent
                 end)
               t.shipments
           with Exit -> ());
          Stats.add t.stats "retransmits" !sent;
          Stats.incr t.stats "retransmit_rounds";
          r.retries <- r.retries + 1;
          let b = backoff t r.retries in
          Stats.add t.stats "backoff_cycles" b;
          r.next_retry <- now + b
        end)
      t.reps

  (* Watermark-only broadcast: opens follower replay gates when no data
     frame is pending (the tail of a run), re-sent periodically so a lost
     frame cannot wedge a gate shut. *)
  let broadcast_watermark t =
    let now = Sched.now () in
    let refresh = 8 * t.rcfg.link.Link.latency in
    if
      t.acked_watermark > t.last_broadcast
      || (t.acked_watermark > 0 && now - t.last_broadcast_at >= refresh)
    then begin
      t.last_broadcast <- t.acked_watermark;
      t.last_broadcast_at <- now;
      Stats.incr t.stats "watermark_broadcasts";
      let b = Wire.encode (Wire.Watermark { acked = t.acked_watermark }) in
      Array.iter (fun r -> Link.send r.down b) t.reps
    end

  let ack_loop t =
    let step = max 1 (t.rcfg.link.Link.latency / 2) in
    let rec loop () =
      if not t.stopped then begin
        Array.iter
          (fun r ->
            let rec drain_link () =
              match Link.recv r.up with
              | None -> ()
              | Some b ->
                (match Wire.decode b with
                | Some (Wire.Ack { seq = _; durable }) ->
                  Stats.incr t.stats "acks_received";
                  if durable > r.acked_hi then begin
                    r.acked_hi <- durable;
                    r.retries <- 0;
                    r.next_retry <- 0
                  end
                | Some _ -> ()
                | None -> Stats.incr t.stats "crc_rejected");
                drain_link ()
            in
            drain_link ())
          t.reps;
        recompute t;
        retransmit t;
        broadcast_watermark t;
        Sched.advance step;
        loop ()
      end
    in
    loop ()

  (* ------------------------------------------------------------------ *)
  (* Replica side: ingest in order, ack cumulatively                     *)
  (* ------------------------------------------------------------------ *)

  (* Apply every in-line batch the ring can take right now. *)
  let rec pump t r =
    let d = Engine.durable_id r.eng in
    match r.deferred with
    | Some s when s.sp_hi <= d ->
      (* A duplicate slipped in line; drop it. *)
      r.deferred <- None;
      pump t r
    | Some s ->
      if
        Trace.span ~cat:"replica" "apply" (fun () ->
            Engine.ingest_record r.eng s.sp_payload)
      then begin
        r.deferred <- None;
        if s.sp_seq > r.ingested_seq then r.ingested_seq <- s.sp_seq;
        Stats.incr t.stats "batches_applied";
        pump t r
      end
      (* else: ring full — keep it deferred, retry after Reproduce
         checkpoints and recycles. *)
    | None -> (
      match Hashtbl.find_opt r.pendingq (d + 1) with
      | Some s ->
        Hashtbl.remove r.pendingq (d + 1);
        r.deferred <- Some s;
        pump t r
      | None -> ())

  (* The follower's replay gate reads [known_acked]: wake its Reproduce. *)
  let raise_known_acked r acked =
    if acked > !(r.known_acked) then begin
      r.known_acked := acked;
      Sched.ring (Engine.durability_bell r.eng)
    end

  let on_frame t r b =
    match Wire.decode b with
    | None -> Stats.incr t.stats "crc_rejected"
    | Some (Wire.Watermark { acked }) -> raise_known_acked r acked
    | Some (Wire.Ack _) -> ()
    | Some (Wire.Batch { seq; lo; hi; acked; payload }) ->
      raise_known_acked r acked;
      let d = Engine.durable_id r.eng in
      if hi <= d then begin
        (* Dedup by batch sequence: already sealed here; re-ack so a lost
           ack cannot retransmit forever. *)
        Stats.incr t.stats "dup_frames";
        r.reack <- true
      end
      else begin
        let s = { sp_seq = seq; sp_lo = lo; sp_hi = hi; sp_payload = payload } in
        if lo > d + 1 then begin
          Stats.incr t.stats "ooo_frames";
          Hashtbl.replace r.pendingq lo s
        end
        else if r.deferred = None then r.deferred <- Some s
        else Hashtbl.replace r.pendingq lo s
      end

  let send_ack r =
    let d = Engine.durable_id r.eng in
    if d <> r.last_acked || r.reack then begin
      r.last_acked <- d;
      r.reack <- false;
      Link.send r.up (Wire.encode (Wire.Ack { seq = r.ingested_seq; durable = d }))
    end

  let net_loop t r =
    let step = max 1 (t.rcfg.link.Link.latency / 2) in
    let rec loop () =
      if not t.stopped then begin
        let rec drain_link () =
          match Link.recv r.down with
          | None -> ()
          | Some b ->
            on_frame t r b;
            drain_link ()
        in
        drain_link ();
        pump t r;
        send_ack r;
        Sched.advance step;
        loop ()
      end
    in
    loop ()

  (* ------------------------------------------------------------------ *)
  (* Lifecycle                                                           *)
  (* ------------------------------------------------------------------ *)

  let start t =
    Engine.start t.prim;
    Engine.set_ship_hook t.prim (Some (on_ship t));
    Array.iter
      (fun r ->
        let cell = r.known_acked in
        Engine.set_replay_gate r.eng (Some (fun it -> it.Dudetm_core.Redo.hi <= !cell));
        Engine.start_follower r.eng;
        ignore
          (Sched.spawn ~daemon:true
             (Printf.sprintf "replica-net-%d" r.idx)
             (fun () -> try net_loop t r with Sched.Killed -> ())))
      t.reps;
    ignore
      (Sched.spawn ~daemon:true "replica-ack" (fun () ->
           try ack_loop t with Sched.Killed -> ()))

  (* ------------------------------------------------------------------ *)
  (* Durability waits (bounded; poll — never a wait_until deadlock)      *)
  (* ------------------------------------------------------------------ *)

  let replica_lag t =
    let d = Engine.durable_id t.prim in
    Array.map (fun r -> d - r.acked_hi) t.reps

  let diagnostic t =
    let d = Engine.durable_id t.prim in
    let per =
      Array.to_list
        (Array.map
           (fun r ->
             Printf.sprintf "r%d{acked=%d lag=%d part=%b retries=%d%s}" r.idx r.acked_hi
               (d - r.acked_hi)
               (Link.partitioned r.down || Link.partitioned r.up)
               r.retries
               (if r.cut_off then " CUT" else ""))
           t.reps)
    in
    Printf.sprintf
      "quorum %d/%d unreachable within %d cycles: durable=%d acked=%d outstanding_batches=%d \
       retransmits=%d retransmit_rounds=%d backoff_cycles=%d replicas=[%s]"
      (quorum t)
      (Array.length t.reps + 1)
      t.cfg.Config.ack_timeout d t.acked_watermark (Queue.length t.shipments)
      (Stats.get t.stats "retransmits")
      (Stats.get t.stats "retransmit_rounds")
      (Stats.get t.stats "backoff_cycles")
      (String.concat " " per)

  let degrade t =
    Stats.incr t.stats "degraded_acks";
    let msg = diagnostic t in
    t.degraded <- Some msg;
    Trace.instant ~cat:"replica" "degraded" t.acked_watermark;
    Degraded_quorum msg

  (* Poll the watermark with a bounded budget.  [Sched.wait_until] is off
     the table: "watermark reached OR timeout" is a time-based predicate,
     and when every replica is partitioned nothing else would advance this
     fiber's clock — the classic wait_until deadlock.  Polling by
     [Sched.advance] always makes progress and lets the ack/retransmit
     daemons run underneath. *)
  let poll_acked t tid =
    let deadline = Sched.now () + t.cfg.Config.ack_timeout in
    let step = max 64 (t.rcfg.link.Link.latency / 2) in
    while t.acked_watermark < tid && Sched.now () < deadline do
      Sched.advance (min step (deadline - Sched.now ()))
    done;
    t.acked_watermark >= tid

  let wait_acked t tid =
    if t.acked_watermark >= tid then Quorum
    else begin
      (* The primary's own seal first — identical to the PR 6 wait (and
         bit-for-bit the whole story when K = 1, where no replica ack is
         needed): registering as a durability waiter makes the group-commit
         daemon flush an open batch immediately. *)
      Engine.wait_durable t.prim tid;
      recompute t;
      if t.acked_watermark >= tid then Quorum
      else if poll_acked t tid then Quorum
      else degrade t
    end

  let drain ?(require_quorum = false) t =
    Engine.drain t.prim;
    recompute t;
    let target = Engine.durable_id t.prim in
    if t.acked_watermark >= target || poll_acked t target then Quorum
    else if require_quorum then raise (Replica_lag (diagnostic t))
    else degrade t

  let sync_followers t =
    let target = t.acked_watermark in
    let reachable r = not (Link.partitioned r.down || Link.partitioned r.up) in
    let caught_up r =
      (not (reachable r))
      || (Engine.durable_id r.eng >= target && Engine.applied_id r.eng >= target)
    in
    let deadline = Sched.now () + t.cfg.Config.ack_timeout in
    let step = max 64 (t.rcfg.link.Link.latency / 2) in
    while (not (Array.for_all caught_up t.reps)) && Sched.now () < deadline do
      Sched.advance (min step (deadline - Sched.now ()))
    done

  let stop t =
    ignore (drain t);
    Engine.stop t.prim;
    sync_followers t;
    Array.iter (fun r -> Engine.stop_follower r.eng) t.reps;
    t.stopped <- true

  (* A tripped retention cap is sticky: the cut-off replica stays broken
     (it needs a resync) even after quorum acks catch back up. *)
  let health t =
    match (t.degraded, t.lag_alarm) with
    | Some d, _ -> Degraded d
    | None, Some d -> Degraded d
    | None, None -> Healthy

  let cut_off t = Array.map (fun r -> r.cut_off) t.reps

  let retained t = Queue.length t.shipments

  let set_partitioned t i p =
    let r = t.reps.(i) in
    Link.set_partitioned r.down p;
    Link.set_partitioned r.up p

  (* ------------------------------------------------------------------ *)
  (* Failover                                                            *)
  (* ------------------------------------------------------------------ *)

  type promotion = {
    promoted : int;
    candidates : int array;
    quorum_prefix : int;
    truncated_txs : int;
    report : Dudetm.recovery_report;
  }

  let promote t =
    Trace.span ~cat:"replica" "promote" @@ fun () ->
    (* Power-cut every replica device: promotion recovers from each
       replica's {e local durable prefix}, nothing volatile. *)
    Array.iter (fun r -> Nvm.crash (Engine.nvm r.eng)) t.reps;
    let prepared =
      Array.map (fun r -> Engine.attach_prepare (Engine.config r.eng) (Engine.nvm r.eng)) t.reps
    in
    let candidates = Array.map Engine.prepared_durable prepared in
    let need = acks_needed t in
    let quorum_prefix =
      if need = 0 then Array.fold_left max 0 candidates
      else begin
        let sorted = Array.copy candidates in
        Array.sort (fun a b -> compare b a) sorted;
        sorted.(need - 1)
      end
    in
    (* Promote the longest prefix, truncated to the quorum prefix: a
       replica that ran ahead of the quorum only loses a tail no client
       was ever promised. *)
    let winner = ref 0 in
    Array.iteri (fun i c -> if c > candidates.(!winner) then winner := i) candidates;
    let eng, report =
      Engine.attach_commit ~durable_cut:quorum_prefix prepared.(!winner)
    in
    ( eng,
      {
        promoted = !winner;
        candidates;
        quorum_prefix;
        truncated_txs = candidates.(!winner) - report.Dudetm.durable;
        report;
      } )

  (* ------------------------------------------------------------------ *)
  (* Introspection                                                       *)
  (* ------------------------------------------------------------------ *)

  let primary t = t.prim

  let replica t i = t.reps.(i).eng

  let nreplicas t = Array.length t.reps

  let link_stats t = Array.map (fun r -> (Link.stats r.down, Link.stats r.up)) t.reps

  let stats t = t.stats
end
