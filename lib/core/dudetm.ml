module Mem = Dudetm_nvm.Mem
module Nvm = Dudetm_nvm.Nvm
module Shadow = Dudetm_shadow.Shadow
module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Log_entry = Dudetm_log.Log_entry
module Vlog = Dudetm_log.Vlog
module Plog = Dudetm_log.Plog
module Combine = Dudetm_log.Combine
module Lz = Dudetm_log.Lz
module Tm_intf = Dudetm_tm.Tm_intf
module Trace = Dudetm_trace.Trace

exception Pmem_exhausted

exception Drain_stalled of string

exception Read_only of string

exception Read_only_violation = Tm_intf.Read_only_violation

exception Daemon_fault of string

type recovery_report = {
  durable : int;
  replayed_txs : int;
  discarded_txs : int;
  discarded_records : int;
  corrupted_records : int;
  quarantined_lines : int;
}

let pmalloc_cost = 120

(* Simulated CPU costs, in cycles: a [dtmWrite] log append, the Persist
   daemon's work per flushed entry and per compressed byte, and
   Reproduce's work per applied entry. *)
let log_append_cost = 80

let flush_cost_per_entry = 6

let compress_cost_per_byte = 2.0

let reproduce_cost_per_entry = 24

(* One sealed log record as handed to the replication layer: the PR 6
   group-commit batch, reused verbatim as the wire unit.  [seq] is the
   record's ring sequence number (the replication stream's dedup key),
   [lo..hi] its contiguous transaction-ID range, [payload] the exact
   CRC-coverable bytes the primary persisted. *)
type shipment = {
  ship_seq : int;
  ship_lo : int;
  ship_hi : int;
  ship_payload : bytes;
}

module Make (Tm : Dudetm_tm.Tm_intf.S) = struct
  type view = Flat of Mem.t | Paged of Shadow.t

  (* A queued unit of Reproduce work ({!Redo.item}).  The last item of a
     record carries the ring position recycling may advance to once it is
     applied: (region, end_off, next_seq). *)
  type queued = { item : Redo.item; recycle : (int * int * int) option }

  (* A sealed-but-unflushed batch: its entries (end marks included,
     combined when configured) and the exact payload the flush appends.
     Combined batches wait in [t.prepared], so a combiner restart never
     re-seals (or drops) a batch already handed to the flusher. *)
  type sealed = { entries : Log_entry.t list; payload : bytes }

  type t = {
    cfg : Config.t;
    nvm : Nvm.t;
    view : view;
    tm : Tm.t;
    tid_base : int;
    vlogs : Vlog.t array;
    plogs : Plog.t array;
    ckpt : Checkpoint.t;
    crcdir : Crcdir.t;
    badlines : Badline.t;
    dirty_extents : (int, unit) Hashtbl.t;  (* heap extents Reproduce touched since last checkpoint *)
    allocator : Alloc.t;  (* current, serves pmalloc *)
    repro_alloc : Alloc.t;  (* allocator state as of [applied] *)
    applied_cell : int ref;  (* = applied; shared with the shadow's gate *)
    mutable durable : int;
    flushed_set : (int, unit) Hashtbl.t;
    mutable persisted_data : int;  (* data persisted for all tids <= this *)
    mutable checkpointed : int;
    queues : queued Queue.t array;  (* per region, lo ascending *)
    mutable pending_recycle : (int * int * int) list;  (* region, end_off, next_seq *)
    (* Daemon working state lives in [t], not in daemon-local closures, so
       a supervisor restart resumes exactly where the failed daemon left
       off: staged-but-unflushed combined transactions, the next group ID,
       and reproduced-but-unpersisted dirty ranges all survive. *)
    staging : (int, Log_entry.t list * bool) Hashtbl.t;  (* combined: tid -> entries, fragment? *)
    mutable next_flush : int;  (* combined persist: next group's first tid *)
    builder : Combine.builder;  (* combined persist: drained at every seal *)
    prepared : sealed Queue.t;  (* sealed batches awaiting NVM flush *)
    mutable combiner_done : bool;  (* combiner exited; flusher may too *)
    mutable flush_started_at : int;  (* ts of the in-flight NVM flush; -1 idle *)
    batch_open_at : int array;  (* per cut source: ts the open batch started; -1 *)
    mutable batch_bound : int;  (* adaptive entries-per-record bound *)
    mutable batch_ewma : float;  (* smoothed backlog-at-flush estimate *)
    mutable durable_waiters : int;  (* threads blocked in [wait_durable] *)
    mutable drain_pace : float;  (* measured NVM drain cost, cycles/entry *)
    repro_ranges : (int * int) list ref;  (* applied but not yet persisted *)
    cross_frontier : int ref;  (* max replayed cross-shard gtid *)
    (* Durable-only snapshot watermark, installed by layers that gate
       durability beyond the local device (shard effective IDs, replication
       quorum).  Thunk returns an engine-space tid; [None]: the local
       durable ID.  Must be a pure read — snapshot readers poll it. *)
    mutable ro_watermark : (unit -> int) option;
    (* Replication tap, installed by lib/replica: fires on the Persist
       daemon right after a log record's NVM persist completes (the batch
       is sealed locally). *)
    mutable ship_hook : (shipment -> unit) option;
    (* The one replay gate, installed by the layer that owns it: Reproduce
       applies the next item only once the gate admits it.  The sharding
       layer holds back a cross-shard fragment until every sibling is
       durable; the replication layer holds a follower at the cluster's
       quorum-acked watermark (replayed state cannot be un-replayed).
       [None]: no gating. *)
    mutable replay_gate : (Redo.item -> bool) option;
    fault_rng : Rng.t;  (* injected transient daemon failures *)
    (* Front-end context supplement, installed by layers above the engine
       (the serving front end): folded into the [Drain_stalled] diagnostic
       so an operator can tell "engine stalled" from "front end overloaded"
       (queue depth, shed counts, gate state).  Must be a pure read. *)
    mutable drain_context : (unit -> string) option;
    mutable read_only : string option;  (* degraded mode: Some reason *)
    mutable stop_flag : bool;
    mutable draining : bool;
    mutable started : bool;
    (* Wake stamps ({!Sched.bell}) of the daemons' and callers' waits.  The
       durability bell rings when the durable ID, the replay queues, the
       replay gate's or the snapshot watermark's inputs or the stop/drain
       flags change; it gates [wait_durable], Reproduce and durable
       snapshot pins, and a sharding layer shares one among its engines.
       The work bell rings when Persist has work: a commit, a sealed
       batch pushed or popped, the combiner's exit, stop/drain. *)
    mutable durability_bell : Sched.bell;
    work_bell : Sched.bell;
    stats : Stats.t;
    log_entries : Stats.cell;  (* resolved once: bumped per logged write *)
  }

  (* A transaction body runs against either a full TM transaction or a
     read-only snapshot; the handle decides which fast path [read] takes
     and makes [write] on a snapshot a typed error. *)
  type txh = Rw of Tm.tx | Snap of Tm.ro

  type tx = {
    t : t;
    thread : int;
    tm_tx : txh;
    touched : (int, unit) Hashtbl.t;  (* pinned shadow pages *)
    mutable touched_list : int list;
    wrote : (int, unit) Hashtbl.t;  (* pages written (for touching IDs) *)
    mutable wrote_list : int list;
    mutable allocs : (int * int) list;  (* this attempt's pmallocs *)
    mutable frees : (int * int) list;  (* deferred pfrees *)
    mutable cross_seal : (int * int) option;  (* (gtid, mask) to seal at commit *)
  }

  let applied t = !(t.applied_cell)

  let set_applied t v = t.applied_cell := v

  let store_of_view = function
    | Flat mem -> { Tm_intf.load = Mem.get_u64 mem; store = Mem.set_u64 mem }
    | Paged sh -> { Tm_intf.load = Shadow.load_u64 sh; store = Shadow.store_u64 sh }

  let make_view cfg nvm applied_cell =
    match cfg.Config.shadow_frames with
    | None ->
      let mem = Mem.create cfg.Config.heap_size in
      Mem.set_bytes mem 0 (Nvm.load_bytes nvm 0 cfg.Config.heap_size);
      Flat mem
    | Some frames ->
      let scfg = Shadow.default_config cfg.Config.shadow_mode ~frames in
      Paged (Shadow.create scfg ~nvm ~applied_id:(fun () -> !applied_cell))

  let build cfg nvm ~tid_base ~plogs ~ckpt ~crcdir ~badlines ~allocator ~repro_alloc =
    let applied_cell = ref tid_base in
    let view = make_view cfg nvm applied_cell in
    let tm = Tm.create ~costs:Tm_intf.default_costs ~seed:cfg.Config.seed (store_of_view view) in
    let stats = Stats.create () in
    {
      cfg;
      nvm;
      view;
      tm;
      tid_base;
      vlogs =
        Array.init cfg.Config.nthreads (fun _ ->
            Vlog.create
              ~unbounded:(cfg.Config.mode = Config.Inf)
              ~capacity:cfg.Config.vlog_capacity ());
      plogs;
      ckpt;
      crcdir;
      badlines;
      dirty_extents = Hashtbl.create 256;
      allocator;
      repro_alloc;
      applied_cell;
      durable = tid_base;
      flushed_set = Hashtbl.create 256;
      persisted_data = tid_base;
      checkpointed = tid_base;
      queues = Array.init (Array.length plogs) (fun _ -> Queue.create ());
      pending_recycle = [];
      staging = Hashtbl.create 1024;
      next_flush = tid_base + 1;
      builder = Combine.builder ();
      prepared = Queue.create ();
      combiner_done = false;
      flush_started_at = -1;
      batch_open_at = Array.make cfg.Config.nthreads (-1);
      batch_bound = cfg.Config.batch_max_entries;
      batch_ewma = float_of_int cfg.Config.batch_max_entries;
      durable_waiters = 0;
      drain_pace = 0.0;
      repro_ranges = ref [];
      cross_frontier = ref 0;
      ro_watermark = None;
      ship_hook = None;
      replay_gate = None;
      fault_rng = Rng.create ((cfg.Config.seed * 31) + 0x5eed);
      drain_context = None;
      read_only = None;
      stop_flag = false;
      draining = false;
      started = false;
      durability_bell = Sched.bell ();
      work_bell = Sched.bell ();
      stats;
      log_entries = Stats.counter stats "log_entries";
    }

  let create ?(nvm_label = "nvm") cfg =
    Config.validate cfg;
    let nvm = Nvm.create ~label:nvm_label cfg.Config.pmem ~size:(Config.nvm_size cfg) in
    let regions = Config.plog_regions cfg in
    let plogs =
      Array.init regions (fun i ->
          Plog.format nvm ~base:(Config.plog_base cfg i) ~size:cfg.Config.plog_size)
    in
    let allocator =
      Alloc.create ~base:cfg.Config.root_size ~size:(cfg.Config.heap_size - cfg.Config.root_size)
    in
    let repro_alloc = Alloc.copy allocator in
    let ckpt =
      Checkpoint.format nvm ~base:(Config.meta_base cfg) ~size:cfg.Config.meta_size
        { Checkpoint.reproduced_upto = 0; cross_frontier = 0;
          free_extents = Alloc.extents allocator }
    in
    let crcdir = Crcdir.format nvm cfg in
    let badlines = Badline.format nvm cfg in
    ignore (Rjournal.format nvm ~base:(Config.rjournal_base cfg));
    build cfg nvm ~tid_base:0 ~plogs ~ckpt ~crcdir ~badlines ~allocator ~repro_alloc

  (* Carve every recorded bad line out of the {e serving} allocator so
     pmalloc never hands out media known to drop writes.  Only the serving
     side: [repro_alloc] must mirror exactly the logged Alloc/Free history
     (new allocations already avoid the lines, so no future log entry can
     overlap them).  A line inside an already-allocated block is skipped —
     reserve only claims free space. *)
  let shun_bad_lines t =
    let ls = Nvm.line_size t.nvm in
    List.iter
      (fun l ->
        let off = l * ls in
        if off + ls > t.cfg.Config.root_size && off < t.cfg.Config.heap_size then begin
          let off = max off t.cfg.Config.root_size in
          let len = min (t.cfg.Config.heap_size - off) ls in
          try Alloc.reserve t.allocator ~off ~len with Invalid_argument _ -> ()
        end)
      (Badline.lines t.badlines)

  (* ------------------------------------------------------------------ *)
  (* Daemon supervision and fault injection                              *)
  (* ------------------------------------------------------------------ *)

  (* Injected transient daemon failure.  Only raised at work-unit
     boundaries where every piece of in-flight state already lives in [t]
     (or in NVM), so a restart resumes from the persistent position without
     duplicating or dropping work. *)
  let maybe_fault t name =
    let rate = t.cfg.Config.daemon_fault_rate in
    if rate > 0.0 && Rng.float t.fault_rng < rate then begin
      Stats.incr t.stats "daemon_faults";
      raise (Daemon_fault name)
    end

  (* Restart a failed daemon with capped exponential backoff (seeded
     jitter).  Only the injected [Daemon_fault] is retried: a real bug
     escaping a daemon must still surface, or the checker would paper over
     genuine failures. *)
  let supervise t loop =
    let failures = ref 0 in
    let rec go () =
      match loop () with
      | () -> ()
      | exception Daemon_fault _ ->
        Stats.incr t.stats "daemon_restarts";
        Trace.instant ~cat:"daemon" "restart" !failures;
        let base = t.cfg.Config.daemon_backoff_base in
        let cap = t.cfg.Config.daemon_backoff_cap in
        let ceiling = min cap (base lsl min !failures 20) in
        let half = max 1 ((ceiling + 1) / 2) in
        let wait = half + Rng.int t.fault_rng half in
        incr failures;
        Stats.add t.stats "daemon_backoff_cycles" wait;
        Sched.advance wait;
        go ()
    in
    go ()

  (* Record a high-water mark: counters are monotone, so push the counter
     up to [v] when it is a new maximum. *)
  let stat_max stats key v =
    let cur = Stats.get stats key in
    if v > cur then Stats.add stats key (v - cur)

  (* ------------------------------------------------------------------ *)
  (* Durable-ID bookkeeping                                              *)
  (* ------------------------------------------------------------------ *)

  (* Tids already at or below the durable ID are ignored, so publishing a
     record twice is harmless. *)
  let note_flushed t (items : Redo.item list) =
    List.iter
      (fun (it : Redo.item) ->
        for tid = max it.lo (t.durable + 1) to it.hi do
          Hashtbl.replace t.flushed_set tid ()
        done)
      items;
    while Hashtbl.mem t.flushed_set (t.durable + 1) do
      Hashtbl.remove t.flushed_set (t.durable + 1);
      t.durable <- t.durable + 1
    done;
    Sched.ring t.durability_bell

  let durable_id t = t.durable

  let applied_id = applied

  let last_tid t = t.tid_base + Tm.last_tid t.tm

  (* Advertise the wait: a Persist daemon holding an open batch for the
     group-commit deadline flushes immediately while anyone is blocked
     here, so batching never adds latency to a durability-bound caller. *)
  let wait_durable t tid =
    if t.durable < tid then begin
      t.durable_waiters <- t.durable_waiters + 1;
      Fun.protect
        ~finally:(fun () -> t.durable_waiters <- t.durable_waiters - 1)
        (fun () ->
          Sched.wait_until ~on:t.durability_bell ~label:"durable id" (fun () ->
              t.durable >= tid))
    end

  let cross_frontier t = !(t.cross_frontier)

  let set_ro_watermark t wm =
    t.ro_watermark <- wm;
    Sched.ring t.durability_bell

  let set_drain_context t f = t.drain_context <- f

  (* Engine-space watermark durable-only snapshots pin at: the installed
     one (shard effective IDs, replication quorum) or the local durable
     ID.  Pure. *)
  let ro_watermark t =
    match t.ro_watermark with Some f -> f () | None -> t.durable

  let set_ship_hook t hook = t.ship_hook <- hook

  let set_replay_gate t gate =
    t.replay_gate <- gate;
    Sched.ring t.durability_bell

  let durability_bell t = t.durability_bell

  let set_durability_bell t b = t.durability_bell <- b

  let rec queue_headed queues target i =
    if i = Array.length queues then -1
    else
      let q = queues.(i) in
      if (not (Queue.is_empty q)) && (Queue.peek q).item.lo = target then i
      else queue_headed queues target (i + 1)

  (* Index of the queue whose head is the next replay item, or -1 if its
     turn has not come (pure: no pop, no allocation — Reproduce's wait
     predicate polls it). *)
  let next_queue t = queue_headed t.queues (applied t + 1) 0

  (* May Reproduce apply the next item?  The installed gate is pure (it
     reads sibling shards' durable counters or a quorum watermark cell), so
     this is safe inside [Sched.wait_until] conditions.  The gate sees the
     pending item itself — the log record is the source of truth, so a
     cross-shard fragment can never slip past the gate before the sharding
     layer has registered its sibling set.
     Under the Skip_batch_seal mutant the durable ID runs ahead of the
     flushed records, so the "durable implies queued" invariant that
     [pop_next] asserts does not hold; wait for the item instead of
     crashing the daemon — the campaign must catch the mutant as a
     durability violation at a power cut, not as an engine exception. *)
  let can_apply t =
    t.durable > applied t
    &&
    let i = next_queue t in
    if i < 0 then t.cfg.Config.fault <> Config.Skip_batch_seal
    else match t.replay_gate with Some gate -> gate (Queue.peek t.queues.(i)).item | None -> true

  (* ------------------------------------------------------------------ *)
  (* Persist step: one pipeline, cut → seal → flush                      *)
  (*                                                                     *)
  (* A cut picks the next batch of whole transactions; the seal turns it  *)
  (* into a record payload (combined and compressed when configured);     *)
  (* the flush waits for ring room, appends the record and publishes it.  *)
  (* Plain and combined group commit are the pipeline's two cut policies: *)
  (*                                                                     *)
  (*   plain     one source per volatile log, cut under the adaptive      *)
  (*             entry bound into that log's own ring; [persist_threads]  *)
  (*             daemons take the fullest ripe log first and seal and     *)
  (*             flush inline (Sync mode runs the same cut per commit);   *)
  (*   combined  one source: every log staged by transaction ID and cut   *)
  (*             in global-ID order at [group_size] transactions into     *)
  (*             ring 0.  The "persist-0" daemon seals; "persist-flush"   *)
  (*             flushes what it sealed, so sealing batch k+1 overlaps    *)
  (*             batch k's NVM transfer.                                  *)
  (*                                                                     *)
  (* A combined record replays as one item ({!Redo.items}), so the shard  *)
  (* replay gate and the recovery vote act only at record boundaries: a   *)
  (* transaction carrying a cross-shard fragment closes the open group    *)
  (* and is sealed alone, so no record mixes a fragment with anything.    *)
  (* ------------------------------------------------------------------ *)

  (* The one publish path for a sealed record, shared by the flush stage
     and follower ingest, once the record is in its ring: count it, queue
     its replay items for Reproduce, advance the durable ID and ship it to
     replicas.  Under the Skip_batch_seal mutant the seal already advanced
     the durable ID, so publishing adds nothing to it. *)
  let publish t ~region items ~payload (record : Plog.record) =
    Stats.incr t.stats "flush_records";
    Stats.add t.stats "flush_payload_bytes" (Bytes.length payload);
    stat_max t.stats "plog_hwm_bytes" (Plog.used_space t.plogs.(region));
    let last = List.length items - 1 in
    List.iteri
      (fun k item ->
        let recycle =
          if k = last then Some (region, record.Plog.end_off, record.Plog.seq + 1) else None
        in
        Queue.push { item; recycle } t.queues.(region))
      items;
    note_flushed t items;
    match (Redo.span items, t.ship_hook) with
    | Some (lo, hi), Some f ->
      f { ship_seq = record.Plog.seq; ship_lo = lo; ship_hi = hi; ship_payload = payload }
    | _ -> ()

  (* The plain bound adapts to the recent arrival rate: an EWMA of the
     backlog observed at each flush, clamped to [batch_min, batch_max], so
     light load gets small low-latency batches and heavy load amortizes the
     per-record overhead without ever exceeding the cap (one giant record
     would hold the channel for the whole backlog's bytes). *)
  let batch_cap t = max 1 (min t.batch_bound t.cfg.Config.batch_max_entries)

  (* Fold one observed backlog into the adaptive bound. *)
  let note_batch_fill t pending =
    let alpha = 0.25 in
    t.batch_ewma <- ((1.0 -. alpha) *. t.batch_ewma) +. (alpha *. float_of_int pending);
    let b = int_of_float (ceil t.batch_ewma) in
    t.batch_bound <-
      max t.cfg.Config.batch_min_entries (min b t.cfg.Config.batch_max_entries);
    stat_max t.stats "batch_bound_hwm" t.batch_bound

  (* Fold one NVM record write into the measured drain rate (cycles per
     log entry, wall time at the channel including contention).  Admission
     pacing uses this to charge producers the real cost of the backlog
     they create. *)
  let note_drain_pace t ~entries ~cycles =
    if entries > 0 && cycles >= 0 then begin
      let per = float_of_int cycles /. float_of_int entries in
      t.drain_pace <-
        (if t.drain_pace <= 0.0 then per
         else (0.75 *. t.drain_pace) +. (0.25 *. per))
    end

  (* -- cut ------------------------------------------------------------ *)

  (* The open-batch clock of source [i]: when its oldest uncut transaction
     became visible to the daemon ([-1]: nothing pending). *)
  let open_clock t i ~fill ~now =
    if fill = 0 then t.batch_open_at.(i) <- -1
    else if t.batch_open_at.(i) < 0 then t.batch_open_at.(i) <- now

  (* After a cut the clock restarts at once if the source still holds
     transactions. *)
  let restart_clock t i ~more = t.batch_open_at.(i) <- (if more then Sched.now () else -1)

  (* The trigger rule: why source [i]'s open batch is cut now — the
     counter that records it — or [None] to keep it open.  A batch is cut
     when it is [full], when a caller blocks in [wait_durable], when it has
     aged past [batch_deadline], or when it is the [tail] of a draining
     run.  The policies file a cut forced by a waiter differently (plain:
     drain, before the deadline; combined: deadline, before the tail), and
     Shard_bench and perfbench read the counters. *)
  let cut_reason t i ~fill ~full ~now ~tail =
    if fill = 0 then None
    else if full then Some "batch_size_flushes"
    else
      let opened = t.batch_open_at.(i) in
      let aged = opened >= 0 && now - opened >= t.cfg.Config.batch_deadline in
      let waited = t.durable_waiters > 0 in
      let tail = tail && (t.draining || t.stop_flag) in
      if t.cfg.Config.combine then
        if aged || waited then Some "batch_deadline_flushes"
        else if tail then Some "batch_drain_flushes"
        else None
      else if waited || tail then Some "batch_drain_flushes"
      else if aged then Some "batch_deadline_flushes"
      else None

  (* A daemon with nothing to cut ages an open batch toward the deadline by
     advancing simulated time (a time-based [wait_until] predicate would
     deadlock the scheduler once every other thread blocks), or sleeps
     until [woken]. *)
  let idle t ~open_batch ~woken =
    if open_batch then Sched.advance (max 1 (t.cfg.Config.batch_deadline / 4))
    else begin
      Sched.wait_until ~on:t.work_bell ~label:"persist: waiting for logs" woken;
      Sched.yield ()
    end

  (* -- seal ----------------------------------------------------------- *)

  (* Seal a cut batch (end marks included): charge the per-entry CPU work,
     combine and compress it when configured, and encode its payload.  The
     combining cycles count as pipeline overlap when the flusher held the
     channel throughout. *)
  let seal t entries =
    let entries =
      if not t.cfg.Config.combine then begin
        stat_max t.stats "batch_hwm_entries" (List.length entries);
        Sched.advance (flush_cost_per_entry * List.length entries);
        entries
      end
      else begin
        let overlapping = t.flush_started_at >= 0 in
        let combined, cstats =
          Trace.span ~cat:"persist" "combine" (fun () ->
              Combine.feed_list t.builder entries;
              let r = Combine.seal t.builder in
              Sched.advance (flush_cost_per_entry * (snd r).Combine.entries_in);
              r)
        in
        Stats.add t.stats "combine_writes_in" cstats.Combine.writes_in;
        Stats.add t.stats "combine_writes_out" cstats.Combine.writes_out;
        stat_max t.stats "batch_hwm_entries" cstats.Combine.entries_in;
        if t.cfg.Config.compress then
          Trace.span ~cat:"persist" "compress" (fun () ->
              let body = Log_entry.encode_list combined in
              Sched.advance
                (int_of_float (float_of_int (Bytes.length body) *. compress_cost_per_byte));
              Stats.add t.stats "compress_in_bytes" (Bytes.length body);
              Stats.add t.stats "compress_out_bytes" (Bytes.length (Lz.compress body)));
        if overlapping && t.flush_started_at >= 0 then begin
          let hidden = Sched.now () - t.flush_started_at in
          if hidden > 0 then begin
            Stats.add t.stats "pipe_overlap_cycles" hidden;
            Trace.instant ~cat:"persist" "pipe_overlap" hidden
          end
        end;
        combined
      end
    in
    (* Seeded mutant (checker self-test only): acknowledge the batch at
       seal time — its record has not reached NVM, so a crash in the
       pipeline window loses acknowledged transactions. *)
    if t.cfg.Config.fault = Config.Skip_batch_seal then
      note_flushed t (Redo.items t.cfg entries);
    { entries; payload = Log_entry.encode_payload ~compress:t.cfg.Config.compress entries }

  (* -- flush ---------------------------------------------------------- *)

  (* Whether ring [region] has room for a record of [need] bytes, header
     included — after waiting for recycling to free it, if [wait]. *)
  let ring_room t region need ~wait =
    let plog = t.plogs.(region) in
    if need > Plog.data_capacity plog then
      invalid_arg "Dudetm: a record exceeds the persistent log ring";
    if wait && Plog.free_space plog < need then
      Sched.wait_until ~label:"plog space" (fun () -> Plog.free_space plog >= need);
    Plog.free_space plog >= need

  (* Append a sealed batch to ring [region] and publish it.  Seeded mutant
     (checker self-test only): skip the record's persist fence, so the
     durable ID published covers a record still sitting in the cache — a
     crash loses transactions the application already acknowledged. *)
  let flush t ~region b =
    ignore (ring_room t region (Plog.record_overhead + Bytes.length b.payload) ~wait:true);
    t.flush_started_at <- Sched.now ();
    let record =
      Trace.span ~cat:"persist" "flush" (fun () ->
          Plog.append
            ~persist:(t.cfg.Config.fault <> Config.Early_durable_publish)
            t.plogs.(region) b.payload)
    in
    note_drain_pace t ~entries:(List.length b.entries)
      ~cycles:(Sched.now () - t.flush_started_at);
    t.flush_started_at <- -1;
    publish t ~region (Redo.items t.cfg b.entries) ~payload:b.payload record

  (* -- plain policy ---------------------------------------------------- *)

  (* Cut the longest prefix of whole transactions from thread [i]'s
     volatile log that fits the adaptive entry bound and ring [i]'s free
     space — always at least one transaction — then seal and flush it.
     Returns false (without waiting, unless [wait]) when the ring has no
     room for even the first transaction. *)
  let cut_vlog t i ~wait =
    let vlog = t.vlogs.(i) in
    let hd = Vlog.head vlog and cm = Vlog.committed vlog in
    cm > hd
    && begin
      stat_max t.stats "vlog_hwm_entries" (cm - hd);
      let rec tx_bytes pos size =
        let e = Vlog.get vlog pos in
        let size = size + Log_entry.encoded_size e in
        match e with Log_entry.Tx_end _ -> size | _ -> tx_bytes (pos + 1) size
      in
      ring_room t i (Plog.record_overhead + 1 + tx_bytes hd 0) ~wait
      (* The Fun.protect-based [Trace.span] keeps the trace balanced even
         when the scheduler kills this daemon mid-flush.  [persist.batch]
         covers the whole unit (cut, CPU work, NVM write, bookkeeping); the
         inner [persist.flush] isolates the NVM record write. *)
      && Trace.span ~cat:"persist" "batch" (fun () ->
             let avail = Plog.free_space t.plogs.(i) - Plog.record_overhead - 1 in
             let cap = batch_cap t in
             let rec scan pos n size cut =
               if pos = cm then cut
               else
                 let e = Vlog.get vlog pos in
                 let size = size + Log_entry.encoded_size e in
                 if cut > hd && (n >= cap || size > avail) then cut
                 else
                   scan (pos + 1) (n + 1) size
                     (match e with Log_entry.Tx_end _ -> pos + 1 | _ -> cut)
             in
             let cut = scan hd 0 0 hd in
             flush t ~region:i (seal t (List.init (cut - hd) (fun k -> Vlog.get vlog (hd + k))));
             Vlog.consume_to vlog cut;
             true)
    end

  let persist_plain_loop t p =
    let mine =
      List.filter
        (fun i -> i mod t.cfg.Config.persist_threads = p)
        (List.init t.cfg.Config.nthreads Fun.id)
    in
    let pending i = Vlog.committed t.vlogs.(i) - Vlog.head t.vlogs.(i) in
    let has_data i = pending i > 0 in
    let woken () = t.stop_flag || List.exists has_data mine in
    (* Fullest ripe vlog first: the producer closest to blocking on a full
       ring is served before lightly loaded ones.  A ripe vlog whose ring
       is full (recycle pending) must not stall the others: fall through
       to the next-fullest, and poll only when none can make progress. *)
    let rec cut_first reason = function
      | [] -> None
      | i :: rest ->
        let n = pending i and why = reason i in
        if cut_vlog t i ~wait:false then begin
          Option.iter (Stats.incr t.stats) why;
          note_batch_fill t n;
          Some i
        end
        else cut_first reason rest
    in
    let rec loop () =
      maybe_fault t "persist";
      let now = Sched.now () in
      List.iter (fun i -> open_clock t i ~fill:(pending i) ~now) mine;
      let cap = batch_cap t in
      let reason i = cut_reason t i ~fill:(pending i) ~full:(pending i >= cap) ~now ~tail:true in
      let ripe = List.filter (fun i -> reason i <> None) mine in
      match cut_first reason (List.sort (fun a b -> compare (pending b) (pending a)) ripe) with
      | Some i ->
        restart_clock t i ~more:(has_data i);
        Sched.yield ();
        loop ()
      | None ->
        let open_batch = List.exists has_data mine in
        if not (t.stop_flag && not open_batch) then begin
          idle t ~open_batch ~woken;
          loop ()
        end
    in
    loop ()

  (* -- combined policy ------------------------------------------------- *)

  (* [t.prepared] is bounded: a deeper pipeline would only widen the window
     of sealed-but-unflushed work without adding overlap. *)
  let max_prepared = 2

  (* Move every committed transaction out of the volatile logs into
     [t.staging], keyed by ID and flagged when it carries a cross-shard
     fragment. *)
  let stage_vlogs t =
    Array.iter
      (fun vlog ->
        let hd = Vlog.head vlog and cm = Vlog.committed vlog in
        if cm > hd then begin
          List.iter
            (fun (tx : Redo.item) ->
              Hashtbl.replace t.staging tx.lo (tx.entries, Redo.max_gtid tx > 0))
            (Redo.txs (List.init (cm - hd) (fun k -> Vlog.get vlog (hd + k))));
          Vlog.consume_to vlog cm
        end)
      t.vlogs

  (* The open group: how many consecutive staged IDs from [t.next_flush] it
     holds, and whether it is full — at [group_size], ended by the next
     transaction's fragment, or itself a lone fragment. *)
  let rec open_group t n =
    if n = t.cfg.Config.group_size then (n, true)
    else
      match Hashtbl.find_opt t.staging (t.next_flush + n) with
      | None -> (n, false)
      | Some (_, fragment) -> if fragment then (max n 1, true) else open_group t (n + 1)

  (* Cut the open group's [n] transactions, seal them and hand the batch
     to the flusher. *)
  let seal_group t n =
    Trace.span ~cat:"persist" "batch" (fun () ->
        let lo = t.next_flush in
        let b =
          seal t (List.concat (List.init n (fun k -> fst (Hashtbl.find t.staging (lo + k)))))
        in
        Queue.push b t.prepared;
        Sched.ring t.work_bell;
        for tid = lo to lo + n - 1 do
          Hashtbl.remove t.staging tid
        done;
        t.next_flush <- lo + n;
        restart_clock t 0 ~more:(Hashtbl.mem t.staging t.next_flush))

  let persist_combined_loop t =
    let woken () =
      t.stop_flag || t.draining
      || Array.exists (fun v -> Vlog.committed v > Vlog.head v) t.vlogs
    in
    let rec loop () =
      maybe_fault t "persist";
      stage_vlogs t;
      let n, full = open_group t 0 in
      let now = Sched.now () in
      open_clock t 0 ~fill:n ~now;
      if Queue.length t.prepared >= max_prepared then begin
        Sched.wait_until ~on:t.work_bell ~label:"persist: pipeline full" (fun () ->
            Queue.length t.prepared < max_prepared || t.stop_flag);
        Sched.yield ();
        loop ()
      end
      else
        match cut_reason t 0 ~fill:n ~full ~now ~tail:(last_tid t < t.next_flush + n) with
        | Some reason ->
          Stats.incr t.stats reason;
          seal_group t n;
          loop ()
        | None when t.stop_flag && n = 0 && Hashtbl.length t.staging = 0 ->
          t.combiner_done <- true;
          Sched.ring t.work_bell
        | None ->
          idle t ~open_batch:(n > 0) ~woken;
          loop ()
    in
    loop ()

  (* All of the flusher's in-flight state is the popped batch itself;
     popping happens after the fault point, so a supervised restart never
     loses or duplicates a record. *)
  let persist_flush_loop t =
    let rec loop () =
      maybe_fault t "persist-flush";
      if not (Queue.is_empty t.prepared) then begin
        let b = Queue.pop t.prepared in
        Sched.ring t.work_bell;
        flush t ~region:0 b;
        loop ()
      end
      else if not (t.stop_flag && t.combiner_done) then begin
        Sched.wait_until ~on:t.work_bell ~label:"flush: waiting for sealed batch" (fun () ->
            (not (Queue.is_empty t.prepared)) || (t.stop_flag && t.combiner_done));
        Sched.yield ();
        loop ()
      end
    in
    loop ()

  (* ------------------------------------------------------------------ *)
  (* Reproduce step                                                      *)
  (* ------------------------------------------------------------------ *)

  let plog_pressure t =
    Array.exists (fun p -> Plog.free_space p < Plog.data_capacity p / 4) t.plogs

  (* Persist every reproduced-but-unpersisted heap range and advance the
     persisted-data watermark.  The ranges live in [t] so a daemon restart
     between applying items and persisting them cannot drop the fence: the
     restarted daemon (or the checkpoint below) still flushes them before
     any checkpoint covers the applied IDs.  The Unfenced_reproduce mutant
     (checker self-test only) skips the fence. *)
  let flush_reproduced t =
    if !(t.repro_ranges) <> [] then begin
      if t.cfg.Config.fault <> Config.Unfenced_reproduce then
        Nvm.persist_ranges t.nvm !(t.repro_ranges);
      t.repro_ranges := []
    end;
    t.persisted_data <- applied t

  let do_checkpoint t =
    Trace.span ~cat:"reproduce" "checkpoint" @@ fun () ->
    (* A daemon restart may have left applied items whose data persist is
       still pending; fence them before the checkpoint can cover them. *)
    flush_reproduced t;
    (* Refresh the CRC directory for every heap extent this checkpoint
       covers.  Reproduce has already persisted those extents (the round's
       persist_ranges precedes the checkpoint), so latest = persisted there
       and the recomputed CRCs seal exactly the checkpointed content. *)
    let extents = Hashtbl.fold (fun e () acc -> e :: acc) t.dirty_extents [] in
    Hashtbl.reset t.dirty_extents;
    Crcdir.update t.crcdir extents;
    Checkpoint.write t.ckpt
      {
        Checkpoint.reproduced_upto = t.persisted_data;
        cross_frontier = !(t.cross_frontier);
        free_extents = Alloc.extents t.repro_alloc;
      };
    (* Recycle each ring up to its furthest completed record. *)
    let per_region = Hashtbl.create 8 in
    List.iter
      (fun (region, end_off, seq) ->
        match Hashtbl.find_opt per_region region with
        | Some (e, _) when e >= end_off -> ()
        | _ -> Hashtbl.replace per_region region (end_off, seq))
      t.pending_recycle;
    Hashtbl.iter
      (fun region (end_off, next_seq) ->
        Plog.recycle_to t.plogs.(region) ~end_off ~next_seq)
      per_region;
    t.pending_recycle <- [];
    t.checkpointed <- t.persisted_data

  let pop_next t =
    let i = next_queue t in
    if i >= 0 then Queue.pop t.queues.(i)
    else
      invalid_arg
        (Printf.sprintf "Dudetm reproduce: transaction %d durable but not queued"
           (applied t + 1))

  (* Apply one item's stores and allocator replay atomically, then publish
     the applied watermark.  Persisting is the caller's job: a reproduce
     round applies a whole batch of items under a single persist ordering,
     which is what keeps one background thread ahead of many Perform
     threads. *)
  let apply_next t =
    let { item; recycle } = pop_next t in
    Sched.advance (reproduce_cost_per_entry * List.length item.entries);
    Redo.apply t.nvm ~alloc:t.repro_alloc ~dirty:t.dirty_extents ~ranges:t.repro_ranges
      ~frontier:t.cross_frontier item;
    set_applied t item.hi;
    Option.iter (fun r -> t.pending_recycle <- r :: t.pending_recycle) recycle

  let reproduce_round t =
    Trace.span ~cat:"reproduce" "replay" @@ fun () ->
    let applied_any = ref false in
    let batch = ref 0 in
    while can_apply t && !batch < t.cfg.Config.reproduce_batch do
      maybe_fault t "reproduce";
      apply_next t;
      applied_any := true;
      incr batch
    done;
    (* One persist ordering covers the whole round's reproduced data. *)
    if !applied_any then flush_reproduced t;
    !applied_any

  let reproduce_loop t =
    let rec loop () =
      maybe_fault t "reproduce";
      if can_apply t then begin
        ignore (reproduce_round t);
        if
          List.length t.pending_recycle >= t.cfg.Config.checkpoint_records
          || (t.pending_recycle <> [] && plog_pressure t)
        then do_checkpoint t;
        loop ()
      end
      else if t.stop_flag && not (can_apply t) then begin
        (* Quiesced — or stopped while a cross-shard fragment is still
           gated on a sibling shard; either way checkpoint what is applied
           and exit (the gated suffix replays at the next attach). *)
        if t.pending_recycle <> [] || t.checkpointed < t.persisted_data then do_checkpoint t
      end
      else begin
        Sched.wait_until ~on:t.durability_bell ~label:"reproduce: waiting for durable" (fun () ->
            t.stop_flag
            || can_apply t
            || (t.pending_recycle <> [] && plog_pressure t));
        if (not (can_apply t)) && t.pending_recycle <> [] && plog_pressure t then
          do_checkpoint t;
        Sched.yield ();
        loop ()
      end
    in
    loop ()

  (* ------------------------------------------------------------------ *)
  (* Lifecycle                                                           *)
  (* ------------------------------------------------------------------ *)

  let start t =
    if t.started then invalid_arg "Dudetm.start: already started";
    t.started <- true;
    (match t.cfg.Config.mode with
    | Config.Sync -> ()
    | Config.Async | Config.Inf ->
      if t.cfg.Config.combine then begin
        ignore
          (Sched.spawn ~daemon:true "persist-0" (fun () ->
               supervise t (fun () -> persist_combined_loop t)));
        ignore
          (Sched.spawn ~daemon:true "persist-flush" (fun () ->
               supervise t (fun () -> persist_flush_loop t)))
      end
      else
        for p = 0 to t.cfg.Config.persist_threads - 1 do
          ignore
            (Sched.spawn ~daemon:true
               (Printf.sprintf "persist-%d" p)
               (fun () -> supervise t (fun () -> persist_plain_loop t p)))
        done);
    ignore
      (Sched.spawn ~daemon:true "reproduce" (fun () ->
           supervise t (fun () -> reproduce_loop t)))

  let drain_diagnostic t =
    let vlog_backlog =
      Array.fold_left (fun acc v -> acc + (Vlog.committed v - Vlog.head v)) 0 t.vlogs
    in
    let rings =
      String.concat ","
        (Array.to_list
           (Array.map
              (fun p -> Printf.sprintf "%d/%d" (Plog.used_space p) (Plog.data_capacity p))
              t.plogs))
    in
    Printf.sprintf
      "drain stalled after %d cycles: last_tid=%d durable=%d applied=%d checkpointed=%d \
       vlog_backlog=%d ring_occupancy=[%s] pending_recycle=%d queued_items=%d stop=%b \
       daemon_restarts=%d daemon_backoff_cycles=%d bp_throttle_events=%d \
       bp_throttle_cycles=%d pmalloc_waits=%d read_only=%s"
      t.cfg.Config.drain_budget (last_tid t) t.durable (applied t) t.checkpointed vlog_backlog
      rings
      (List.length t.pending_recycle)
      (Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues)
      t.stop_flag
      (Stats.get t.stats "daemon_restarts")
      (Stats.get t.stats "daemon_backoff_cycles")
      (Stats.get t.stats "bp_throttle_events")
      (Stats.get t.stats "bp_throttle_cycles")
      (Stats.get t.stats "pmalloc_waits")
      (match t.read_only with None -> "no" | Some r -> Printf.sprintf "%S" r)
    ^ (match t.drain_context with None -> "" | Some f -> " " ^ f ())

  (* Mark the instance as draining without waiting.  The sharding layer
     sets this on every region before blocking in [drain]: a combined-mode
     persist daemon only flushes a partial trailing group once draining is
     set, and a cross-shard replay gate on one region can require exactly
     that trailing flush on a sibling. *)
  let ring_all t =
    Sched.ring t.durability_bell;
    Sched.ring t.work_bell

  let begin_drain t =
    t.draining <- true;
    ring_all t

  let drain t =
    begin_drain t;
    let deadline = Sched.global_now () + t.cfg.Config.drain_budget in
    let drained () =
      let last = last_tid t in
      t.durable = last && applied t = last
    in
    (* The budget catches livelock — daemons burning simulated time without
       retiring transactions.  (True deadlock already raises
       [Sched.Deadlock].)  The predicate stays pure; the raise happens back
       on the caller's fiber. *)
    Sched.wait_until ~label:"drain" (fun () ->
        drained () || Sched.global_now () >= deadline);
    if not (drained ()) then raise (Drain_stalled (drain_diagnostic t))

  let stop t =
    drain t;
    t.stop_flag <- true;
    ring_all t

  (* ------------------------------------------------------------------ *)
  (* Follower mode (replicated durability, lib/replica)                  *)
  (* ------------------------------------------------------------------ *)

  (* A follower runs no Perform and no Persist: the primary's Persist
     daemon already produced the sealed record, so ingesting one is just
     the flush stage's tail — append the exact shipped payload to ring 0
     and [publish] it.  The follower's ring therefore holds byte-identical
     records at the same sequence numbers as the primary's ring 0, which
     is what makes promotion plain [attach] recovery. *)
  let ingest_record t payload =
    let items = Redo.items t.cfg (Log_entry.decode_payload payload) in
    match Redo.span items with
    | None -> true
    | Some (lo, hi) ->
      if lo <> t.durable + 1 then
        invalid_arg
          (Printf.sprintf
             "Dudetm.ingest_record: batch [%d,%d] breaks the contiguous durable prefix at %d"
             lo hi t.durable);
      let plog = t.plogs.(0) in
      if Plog.free_space plog < Plog.record_overhead + Bytes.length payload + 1 then
        (* Ring full (replay gated or Reproduce behind): the caller keeps
           the frame buffered and retries once recycling frees space. *)
        false
      else begin
        publish t ~region:0 items ~payload (Plog.append plog payload);
        true
      end

  let start_follower t =
    if t.started then invalid_arg "Dudetm.start_follower: already started";
    t.started <- true;
    ignore
      (Sched.spawn ~daemon:true "reproduce" (fun () ->
           supervise t (fun () -> reproduce_loop t)))

  (* No [drain]: a follower's [last_tid] never moves (no Perform), and its
     replay gate may legitimately hold back a suffix forever — just tell
     the Reproduce daemon to checkpoint what is applied and exit. *)
  let stop_follower t =
    t.draining <- true;
    t.stop_flag <- true;
    ring_all t

  (* ------------------------------------------------------------------ *)
  (* Perform step: the transaction API                                   *)
  (* ------------------------------------------------------------------ *)

  let page_addr sh page = page lsl (Shadow.config sh).Shadow.page_bits

  let unpin_all dtx =
    (match dtx.t.view with
    | Flat _ -> ()
    | Paged sh -> List.iter (fun page -> Shadow.unpin sh (page_addr sh page)) dtx.touched_list);
    Hashtbl.reset dtx.touched;
    dtx.touched_list <- [];
    Hashtbl.reset dtx.wrote;
    dtx.wrote_list <- []

  let touch dtx addr ~wrote =
    match dtx.t.view with
    | Flat _ -> ()
    | Paged sh ->
      let page = Shadow.page_of sh addr in
      if not (Hashtbl.mem dtx.touched page) then begin
        Hashtbl.add dtx.touched page ();
        dtx.touched_list <- page :: dtx.touched_list;
        Shadow.pin sh addr
      end;
      if wrote && not (Hashtbl.mem dtx.wrote page) then begin
        Hashtbl.add dtx.wrote page ();
        dtx.wrote_list <- page :: dtx.wrote_list
      end

  let read dtx addr =
    touch dtx addr ~wrote:false;
    match dtx.tm_tx with
    | Rw tm_tx -> Tm.read tm_tx addr
    | Snap ro -> Tm.ro_read ro addr

  let require_writable t =
    match t.read_only with
    | Some reason -> raise (Read_only reason)
    | None -> ()

  (* The write-side TM handle; a snapshot transaction attempting any
     mutation gets the typed violation (there is nothing to roll back —
     snapshots own no locks and logged nothing). *)
  let require_rw dtx =
    match dtx.tm_tx with
    | Rw tm_tx -> tm_tx
    | Snap _ -> raise Read_only_violation

  let write dtx addr value =
    let tm_tx = require_rw dtx in
    require_writable dtx.t;
    touch dtx addr ~wrote:true;
    Trace.sample ~cat:"perform" "log_append" log_append_cost;
    Sched.advance log_append_cost;
    Vlog.append dtx.t.vlogs.(dtx.thread) (Log_entry.Write { addr; value });
    Stats.bump dtx.t.log_entries;
    Tm.write tm_tx addr value

  let abort dtx =
    match dtx.tm_tx with
    | Rw tm_tx -> Tm.user_abort tm_tx
    | Snap ro -> Tm.ro_abort ro

  (* Request a cross-shard fragment seal: if this transaction commits with
     writes, a [Cross { gtid; mask; tid }] entry is logged just before its
     end mark.  Called by the sharding layer once the body has finished and
     the set of shards actually written is known. *)
  let seal_cross dtx ~gtid ~mask = dtx.cross_seal <- Some (gtid, mask)

  (* Allocation backpressure: concurrent transactions return space at
     commit ([pfree]) and abort (refunds), so a full heap is often
     transient.  Block within the configured budget and retry before
     giving up with [Pmem_exhausted]. *)
  let alloc_with_backpressure t n =
    match Alloc.alloc t.allocator n with
    | Some off -> Some off
    | None ->
      let could_ever_fit = n <= t.cfg.Config.heap_size - t.cfg.Config.root_size in
      let budget = t.cfg.Config.pmalloc_wait_budget in
      if budget <= 0 || (not (Sched.running ())) || not could_ever_fit then None
      else begin
        (* Poll with [Sched.advance] rather than [wait_until]: the wait is
           bounded by simulated time, and a time-based [wait_until]
           predicate can never come true when every other thread is also
           blocked (the scheduler would call it a deadlock).  Advancing
           always makes progress. *)
        Stats.incr t.stats "pmalloc_waits";
        Trace.span_begin ~cat:"perform" "pmalloc_wait";
        let step = max 1 (budget / 32) in
        let elapsed = ref 0 in
        let result = ref None in
        while !result = None && !elapsed < budget && not t.stop_flag do
          let d = min step (budget - !elapsed) in
          Sched.advance d;
          elapsed := !elapsed + d;
          result := Alloc.alloc t.allocator n
        done;
        Stats.add t.stats "pmalloc_wait_cycles" !elapsed;
        Trace.span_end ~cat:"perform" "pmalloc_wait";
        !result
      end

  let pmalloc dtx n =
    if n <= 0 then invalid_arg "Dudetm.pmalloc: non-positive size";
    ignore (require_rw dtx);
    require_writable dtx.t;
    Sched.advance pmalloc_cost;
    match alloc_with_backpressure dtx.t n with
    | None -> raise Pmem_exhausted
    | Some off ->
      dtx.allocs <- (off, n) :: dtx.allocs;
      Vlog.append dtx.t.vlogs.(dtx.thread) (Log_entry.Alloc { off; len = n });
      (* Zero the first word transactionally: initializes the block and
         guarantees the transaction is a write transaction, so the Alloc
         entry is always sealed under a real transaction ID. *)
      write dtx off 0L;
      off

  let pfree dtx ~off ~len =
    if len <= 0 then invalid_arg "Dudetm.pfree: non-positive size";
    ignore (require_rw dtx);
    require_writable dtx.t;
    write dtx off 0L;
    Vlog.append dtx.t.vlogs.(dtx.thread) (Log_entry.Free { off; len });
    dtx.frees <- (off, len) :: dtx.frees

  (* Backpressure: true when some ring is occupied beyond the configured
     high-water fraction. *)
  let ring_pressure t =
    let hwm = t.cfg.Config.bp_hwm_fraction in
    Array.exists
      (fun p -> float_of_int (Plog.used_space p) >= hwm *. float_of_int (Plog.data_capacity p))
      t.plogs

  (* Throttle a Perform thread about to start a transaction while a ring
     sits above its high-water mark: a bounded wait gives Persist/Reproduce
     a chance to recycle instead of letting producers run the rings into
     the hard full-waiting path.  Bounded so a stuck pipeline degrades to
     the existing full-ring behavior rather than blocking forever. *)
  let throttle_on_pressure t =
    if
      t.started && (not t.draining) && (not t.stop_flag)
      && t.cfg.Config.bp_wait_budget > 0
      && t.cfg.Config.mode <> Config.Sync
      && Sched.running () && ring_pressure t
    then begin
      Stats.incr t.stats "bp_throttle_events";
      Trace.span_begin ~cat:"perform" "bp_throttle";
      (* Advance-based polling, not [wait_until]: see
         [alloc_with_backpressure].  The step is capped well below
         budget/32: batched persist and per-batch checkpoints clear ring
         pressure in thousands of cycles, so a coarse quantum would charge
         a throttled transaction far more wait than the pressure lasted
         (the old 62.5k-cycle step WAS the commit-latency tail). *)
      let budget = t.cfg.Config.bp_wait_budget in
      let step = max 1 (min (budget / 32) 1_000) in
      let elapsed = ref 0 in
      while
        ring_pressure t && (not t.stop_flag) && (not t.draining) && !elapsed < budget
      do
        let d = min step (budget - !elapsed) in
        Sched.advance d;
        elapsed := !elapsed + d
      done;
      Stats.add t.stats "bp_throttle_cycles" !elapsed;
      Trace.span_end ~cat:"perform" "bp_throttle"
    end

  (* Rate-matched admission pacing.  When this thread's volatile log holds
     more than a quarter of its capacity, delay the next transaction in
     proportion to the excess, charged at the drain rate the persist
     daemons actually measured at the NVM channel.  Under saturation every
     transaction then pays a small, smooth share of the drain debt instead
     of a few unlucky ones absorbing the whole backlog in one vlog-full
     stall — the admission-control half of bounded group commit, and what
     turns a 150x p99/p50 commit-latency ratio into a single-digit one.
     Inactive until the first record flush ([drain_pace] = 0) and below
     the quarter-capacity low-water mark, so unsaturated runs never pay. *)
  let pace_admission t ~thread =
    if
      t.started && (not t.draining) && (not t.stop_flag)
      && t.cfg.Config.bp_wait_budget > 0
      && t.cfg.Config.mode <> Config.Sync
      && t.drain_pace > 0.0 && Sched.running ()
    then begin
      let vlog = t.vlogs.(thread) in
      if not (Vlog.unbounded vlog) then begin
        (* Pace against the global backlog, not just this thread's vlog:
           the shared channel drains one vlog at a time, so one log's
           occupancy sawtooths by a whole batch while the sum across
           producers moves smoothly — and a smooth signal is what keeps
           the paced latency distribution tight. *)
        let n = Array.length t.vlogs in
        let backlog = Array.fold_left (fun a v -> a + Vlog.length v) 0 t.vlogs in
        let low = n * Vlog.capacity vlog * 3 / 8 in
        let over = backlog - low in
        if over > 0 then begin
          let delay =
            int_of_float (float_of_int over *. t.drain_pace /. float_of_int n)
          in
          if delay > 0 then begin
            Stats.incr t.stats "pace_events";
            Stats.add t.stats "pace_cycles" delay;
            Sched.advance delay
          end
        end
      end
    end

  let atomically_body t ~thread f =
    let vlog = t.vlogs.(thread) in
    let attempt : tx option ref = ref None in
    let cleanup () =
      (match !attempt with
      | Some dtx ->
        Vlog.pop_current_tx vlog;
        List.iter (fun (off, len) -> Alloc.free t.allocator ~off ~len) dtx.allocs;
        unpin_all dtx
      | None -> ());
      attempt := None
    in
    let outcome =
      Tm.run ~on_retry:cleanup t.tm (fun tm_tx ->
          let dtx =
            {
              t;
              thread;
              tm_tx = Rw tm_tx;
              touched = Hashtbl.create 8;
              touched_list = [];
              wrote = Hashtbl.create 8;
              wrote_list = [];
              allocs = [];
              frees = [];
              cross_seal = None;
            }
          in
          attempt := Some dtx;
          f dtx)
    in
    match outcome with
    | None -> None
    | Some (value, raw_tid) ->
      let dtx = match !attempt with Some d -> d | None -> assert false in
      attempt := None;
      Stats.incr t.stats "txs";
      if raw_tid = 0 then begin
        assert (Vlog.current_tx_entries vlog = 0);
        unpin_all dtx;
        Some (value, 0)
      end
      else begin
        let tid = t.tid_base + raw_tid in
        List.iter (fun (off, len) -> Alloc.free t.allocator ~off ~len) dtx.frees;
        (* The fragment seal rides in the redo log just before the end
           mark, so it is CRC-sealed with the fragment's writes and recovery
           sees (gtid, mask, tid) in the same durable record. *)
        (match dtx.cross_seal with
        | Some (gtid, mask) -> Vlog.append vlog (Log_entry.Cross { gtid; mask; tid })
        | None -> ());
        Vlog.append_end vlog ~tid;
        Sched.ring t.work_bell;
        (match t.view with
        | Flat _ -> ()
        | Paged sh ->
          List.iter (fun page -> Shadow.set_touching sh ~page ~tid) dtx.wrote_list);
        unpin_all dtx;
        (match t.cfg.Config.mode with
        | Config.Sync ->
          ignore (cut_vlog t thread ~wait:true);
          Trace.span_begin ~cat:"perform" "sync_wait";
          wait_durable t tid;
          Trace.span_end ~cat:"perform" "sync_wait"
        | Config.Async | Config.Inf -> ());
        Some (value, tid)
      end

  (* The perform span is opened/closed with explicit begin/end on every exit
     (including re-raised exceptions like [Pmem_exhausted]) rather than the
     closure-based [Trace.span]: this path runs once per transaction and must
     allocate nothing when tracing is off. *)
  let atomically t ~thread f =
    if thread < 0 || thread >= t.cfg.Config.nthreads then
      invalid_arg "Dudetm.atomically: bad thread index";
    throttle_on_pressure t;
    pace_admission t ~thread;
    Trace.span_begin ~cat:"perform" "tx";
    match atomically_body t ~thread f with
    | r ->
      Trace.span_end ~cat:"perform" "tx";
      r
    | exception e ->
      Trace.span_end ~cat:"perform" "tx";
      raise e

  (* Read-only snapshot transactions (the DUMBO-style fast path).  No
     ring-pressure throttle, no admission pacing, no redo-log append, no
     write locks, no persist wait: the decoupled pipeline never hears of
     the transaction, and the returned epoch is the engine-space clock
     value the read-set is consistent at.  [durable] pins the snapshot at
     {!ro_watermark} so reads observe only crash-surviving state. *)
  let atomically_ro ?(durable = false) t ~thread f =
    if thread < 0 || thread >= t.cfg.Config.nthreads then
      invalid_arg "Dudetm.atomically_ro: bad thread index";
    let pin =
      if durable then Some (fun () -> ro_watermark t - t.tid_base) else None
    in
    let validate_extension = t.cfg.Config.fault <> Config.Skip_snapshot_validate in
    Trace.span_begin ~cat:"perform" "ro_tx";
    let attempt : tx option ref = ref None in
    let cleanup () =
      (match !attempt with Some dtx -> unpin_all dtx | None -> ());
      attempt := None
    in
    match
      Tm.run_ro ?pin ~pin_bell:t.durability_bell ~validate_extension ~on_retry:cleanup t.tm
        (fun ro ->
          let dtx =
            {
              t;
              thread;
              tm_tx = Snap ro;
              touched = Hashtbl.create 8;
              touched_list = [];
              wrote = Hashtbl.create 8;
              wrote_list = [];
              allocs = [];
              frees = [];
              cross_seal = None;
            }
          in
          attempt := Some dtx;
          f dtx)
    with
    | Some (value, raw_epoch) ->
      cleanup ();
      Stats.incr t.stats "ro_txs";
      if durable then Stats.incr t.stats "ro_durable_txs";
      Trace.span_end ~cat:"perform" "ro_tx";
      Some (value, t.tid_base + raw_epoch)
    | None ->
      cleanup ();
      Trace.span_end ~cat:"perform" "ro_tx";
      None
    | exception e ->
      cleanup ();
      Trace.span_end ~cat:"perform" "ro_tx";
      raise e

  (* ------------------------------------------------------------------ *)
  (* Recovery                                                            *)
  (* ------------------------------------------------------------------ *)

  (* Recovery state between the non-destructive scan ([attach_prepare]) and
     the destructive replay ([attach_commit]).  The sharding layer prepares
     every region first, runs the cross-shard vote over the scanned
     fragments and checkpointed frontiers, and only then commits each
     region with its voted durable cut. *)
  type prepared = {
    p_cfg : Config.t;
    p_nvm : Nvm.t;
    p_journal : Rjournal.t option;  (* [None]: journal bypassed (mutant) *)
    p_ckpt : Checkpoint.t;
    p_frontier : int;  (* checkpointed cross-shard frontier *)
    p_repro_alloc : Alloc.t;
    p_plogs : Plog.t array;
    p_corrupted : int;
    p_quarantined : int;
    p_scan : Redo.scan;  (* its [durable] is the candidate before any cross-shard vote *)
  }

  let prepared_durable p = p.p_scan.Redo.durable

  let prepared_frontier p = p.p_frontier

  let prepared_fragments p = p.p_scan.Redo.fragments

  let prepared_checkpoint_upto p = p.p_scan.Redo.upto

  let attach_prepare cfg nvm =
    Config.validate cfg;
    if Nvm.size nvm <> Config.nvm_size cfg then
      invalid_arg "Dudetm.attach: device size does not match the configuration";
    (* Recovery is itself crash-consistent: destructive recovery-time
       writes are ordered behind the intent journal, and a probe pattern a
       crashed scrub left in the heap is undone before trusting a single
       heap byte. *)
    let journal = Redo.recovery_journal cfg nvm in
    let ckpt, state = Checkpoint.attach nvm ~base:(Config.meta_base cfg) ~size:cfg.Config.meta_size in
    let regions = Config.plog_regions cfg in
    let attached =
      Array.init regions (fun r ->
          Plog.attach_scan nvm ~base:(Config.plog_base cfg r) ~size:cfg.Config.plog_size)
    in
    let corrupted_records =
      Array.fold_left (fun acc (_, s) -> acc + s.Plog.corrupted_records) 0 attached
    in
    let quarantined_lines =
      Array.fold_left (fun acc (_, s) -> acc + s.Plog.quarantined_lines) 0 attached
    in
    if corrupted_records > 0 then Nvm.note_media_detected nvm corrupted_records;
    {
      p_cfg = cfg;
      p_nvm = nvm;
      p_journal = journal;
      p_ckpt = ckpt;
      p_frontier = state.Checkpoint.cross_frontier;
      p_repro_alloc = Alloc.restore state.Checkpoint.free_extents;
      p_plogs = Array.map fst attached;
      p_corrupted = corrupted_records;
      p_quarantined = quarantined_lines;
      p_scan =
        Redo.scan cfg ~upto:state.Checkpoint.reproduced_upto (Array.map snd attached);
    }

  let attach_commit ?durable_cut p =
    Trace.span ~cat:"recovery" "attach" @@ fun () ->
    let cfg = p.p_cfg in
    let nvm = p.p_nvm in
    let scan = p.p_scan in
    let repro_alloc = p.p_repro_alloc in
    (* The cross-shard vote can only shrink the durable prefix (discarding
       fragments of incomplete cross-shard transaction sets, and with them
       the suffix behind the cut), never extend it and never cut below the
       checkpoint. *)
    let d =
      match durable_cut with
      | None -> scan.Redo.durable
      | Some cut ->
        if cut > scan.Redo.durable then
          invalid_arg "Dudetm.attach_commit: durable cut beyond the scanned prefix";
        max scan.Redo.upto cut
    in
    let keep, dropped = Redo.live scan ~durable:d in
    (* The recovery verdict is fully determined before any heap mutation.
       If a previous attach sealed a verdict for the same durable ID and
       then crashed mid-recovery, adopt it: the report converges to the
       pre-crash verdict no matter where that crash landed (e.g. after the
       rings were already recycled, when a fresh scan would count zero
       replayed transactions).  Then seal this attach's verdict before the
       replay below mutates anything. *)
    let verdict =
      match Option.map Rjournal.read p.p_journal with
      | Some (Rjournal.Replay v) when v.Rjournal.v_durable = d -> v
      | _ ->
        {
          Rjournal.v_durable = d;
          v_replayed_txs =
            List.fold_left (fun acc (it : Redo.item) -> acc + (it.hi - it.lo + 1)) 0 keep;
          v_discarded_txs =
            Hashtbl.fold (fun tid () acc -> if tid > d then acc + 1 else acc) scan.Redo.tids 0;
          v_discarded_records =
            List.length (List.filter (fun (it : Redo.item) -> it.lo > d) dropped);
          v_corrupted_records = p.p_corrupted;
          v_quarantined_lines = p.p_quarantined;
        }
    in
    Option.iter (fun j -> Rjournal.write j (Rjournal.Replay verdict)) p.p_journal;
    (* Replay in transaction-ID order. *)
    let ranges = ref [] in
    let replayed_extents = Hashtbl.create 64 in
    let frontier = ref p.p_frontier in
    List.iter
      (Redo.apply nvm ~alloc:repro_alloc ~dirty:replayed_extents ~ranges ~frontier)
      keep;
    Nvm.persist_ranges nvm !ranges;
    (* Reproduce may have written these same extents after the last
       checkpoint without refreshing their directory entries (that happens
       at checkpoint time); the replay just rewrote them, so reseal their
       CRCs now. *)
    let crcdir = Crcdir.attach nvm cfg in
    Crcdir.update crcdir (Hashtbl.fold (fun e () acc -> e :: acc) replayed_extents []);
    Checkpoint.write p.p_ckpt
      { Checkpoint.reproduced_upto = d; cross_frontier = !frontier;
        free_extents = Alloc.extents repro_alloc };
    Array.iter
      (fun plog -> Plog.recycle_to plog ~end_off:(Plog.tail_off plog) ~next_seq:(Plog.next_seq plog))
      p.p_plogs;
    (* The verdict stays sealed: clearing it here would open a window (a
       crash right after the clear persists) where a re-attach sees the
       recycled rings and reports zero replayed transactions.  The
       [v_durable = d] guard above retires it naturally once new
       transactions advance the durable ID. *)
    let badlines, _ = Badline.attach nvm cfg in
    let t =
      build cfg nvm ~tid_base:d ~plogs:p.p_plogs ~ckpt:p.p_ckpt ~crcdir ~badlines
        ~allocator:(Alloc.copy repro_alloc) ~repro_alloc
    in
    shun_bad_lines t;
    t.persisted_data <- d;
    t.checkpointed <- d;
    t.cross_frontier := !frontier;
    ( t,
      {
        durable = verdict.Rjournal.v_durable;
        replayed_txs = verdict.Rjournal.v_replayed_txs;
        discarded_txs = verdict.Rjournal.v_discarded_txs;
        discarded_records = verdict.Rjournal.v_discarded_records;
        corrupted_records = verdict.Rjournal.v_corrupted_records;
        quarantined_lines = verdict.Rjournal.v_quarantined_lines;
      } )

  let attach cfg nvm = attach_commit (attach_prepare cfg nvm)

  (* ------------------------------------------------------------------ *)
  (* Introspection                                                       *)
  (* ------------------------------------------------------------------ *)

  let config t = t.cfg

  let freeze t ~reason = t.read_only <- Some reason

  let read_only t = t.read_only

  let nvm t = t.nvm

  let root_base _ = 0

  let heap_read_u64 t addr =
    match t.view with Flat mem -> Mem.get_u64 mem addr | Paged sh -> Shadow.load_u64 sh addr

  let stats t = t.stats

  let tm t = t.tm

  let shadow_stats t =
    match t.view with Flat _ -> None | Paged sh -> Some (Shadow.stats sh)

  let vlog_producer_blocks t =
    Array.fold_left (fun acc v -> acc + Vlog.producer_blocks v) 0 t.vlogs
end
