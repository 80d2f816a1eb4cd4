(** The decoupled durable-transaction engine (Sections 3–4).

    A functor over an out-of-the-box TM.  A durable transaction's life:

    - {b Perform}: the application thread runs the transaction with the TM
      against volatile data (a flat DRAM mirror of the heap, or a paged
      {!Dudetm_shadow.Shadow} when the shadow is smaller than NVM).  Every
      [write] also appends a redo entry to the thread's volatile log;
      commit appends the end mark carrying the TM-issued transaction ID.
    - {b Persist}: background threads drain volatile logs into checksummed
      records in persistent log rings (one persist ordering per record) and
      advance the global durable ID — the largest D such that every
      transaction with ID ≤ D is persistent.  Optionally they combine
      writes across groups of transactions and LZ-compress the groups.
    - {b Reproduce}: a background thread replays persisted records onto the
      home NVM locations in transaction-ID order, persists the reproduced
      data, checkpoints the allocator + watermark, and recycles records.

    Dirty volatile data is never written to NVM home locations directly;
    the redo log is the only channel, so CPU-cache evictions of shadow data
    can never break crash consistency.  Every persisted record takes one
    path ({!Redo}): the Persist pipeline's one flush stage (under either
    cut policy, plain or combined) and follower ingest publish it
    through one function, Reproduce and recovery apply it with
    {!Redo.apply}, one replay gate ({!Make.set_replay_gate}) decides when
    Reproduce may apply it, and recovery and the offline scrub agree on
    which records are live after a crash ({!Redo.live}). *)

exception Pmem_exhausted
(** [pmalloc] found no free extent large enough. *)

exception Drain_stalled of string
(** {!Make.drain} exceeded its simulated-cycle budget
    ({!Config.drain_budget}) without retiring every committed transaction.
    The payload is a diagnostic of the stuck pipeline: durable/applied IDs,
    volatile-log backlog, ring occupancy, queued reproduce items, daemon
    restart/backoff counters and the backpressure state — so a stall caused
    by a crash-looping daemon is distinguishable from ring-full
    livelock. *)

exception Read_only of string
(** The instance is in degraded read-only mode (see {!Make.freeze}):
    transactional writes, [pmalloc] and [pfree] are rejected with the
    reason the instance was frozen; reads still work. *)

exception Read_only_violation
(** A transaction declared read-only ({!Make.atomically_ro}) attempted a
    write, [pmalloc] or [pfree].  A programming error, not a conflict:
    snapshot transactions hold no locks and logged nothing, so there is
    nothing to roll back.  (Same exception as
    [Dudetm_tm.Tm_intf.Read_only_violation].) *)

exception Daemon_fault of string
(** Injected transient Persist/Reproduce worker failure (seeded via
    {!Config.daemon_fault_rate}; never raised in production
    configurations).  Handled by the daemon supervisor, which restarts the
    worker from its persistent position with capped exponential backoff —
    it escapes only if a fault fires outside any supervised daemon. *)

type recovery_report = {
  durable : int;  (** recovered durable ID: state equals this prefix *)
  replayed_txs : int;  (** durable transactions replayed from logs *)
  discarded_txs : int;  (** flushed but non-durable transactions dropped:
                            their logs landed beyond a gap left by a log
                            that never made it, so they were never
                            acknowledged and are abandoned (Section 3.5) *)
  discarded_records : int;  (** log records abandoned for that reason; torn
                                records are additionally rejected by their
                                checksums during the scan *)
  corrupted_records : int;  (** once-sealed records destroyed by media
                                faults: mid-ring CRC failures bridged by
                                the tolerant ring scan, plus rings whose
                                header was lost.  Transactions above the
                                resulting gap are abandoned (counted in
                                [discarded_txs]) — reported, never
                                silently served *)
  quarantined_lines : int;  (** distinct device lines covered by corrupted
                                record bytes *)
}

type shipment = {
  ship_seq : int;  (** the record's ring sequence number: the replication
                       stream's dedup/retransmit key *)
  ship_lo : int;  (** first transaction ID sealed in the record *)
  ship_hi : int;  (** last transaction ID sealed in the record *)
  ship_payload : bytes;  (** the exact payload bytes persisted to ring 0 *)
}
(** One sealed log record as handed to the replication layer
    ([lib/replica]): the group-commit batch of PR 6, reused verbatim as
    the wire unit.  A follower ingesting the payload reproduces a
    byte-identical record at the same sequence number in its own ring. *)

module Make (Tm : Dudetm_tm.Tm_intf.S) : sig
  type t

  type tx

  (** {1 Lifecycle} *)

  val create : ?nvm_label:string -> Config.t -> t
  (** Build a fresh instance: allocates and formats a simulated NVM device
      per the config's layout.  [nvm_label] (default ["nvm"]) names the
      device in trace per-device accounting — the sharding layer passes
      ["shard<i>"]. *)

  val attach : Config.t -> Dudetm_nvm.Nvm.t -> t * recovery_report
  (** Recover from a crashed device: scan the log rings, recompute the
      durable ID, replay durable transactions past the checkpoint, discard
      torn tails, rebuild the allocator, and return a fresh instance whose
      transaction IDs continue after the recovered prefix.

      Recovery is itself crash-consistent: a pending scrub probe recorded
      in the intent journal ({!Rjournal}) is undone first, the recovery
      verdict is sealed in the journal before any heap mutation, and a
      crash at any persist boundary inside [attach] followed by a fresh
      [attach] converges to the same durable ID, heap state and recovery
      report. *)

  (** {2 Two-phase recovery (cross-shard vote)}

      [attach] is the composition of a non-destructive scan and a
      destructive commit.  The sharding layer prepares every region first,
      votes over the scanned fragment seals and checkpointed frontiers,
      then commits each region with its voted durable cut — so a fragment
      of an incomplete cross-shard transaction set is discarded on {e
      every} region, never replayed on some and dropped on others. *)

  type prepared

  val attach_prepare : Config.t -> Dudetm_nvm.Nvm.t -> prepared
  (** Undo any journalled probe, read the checkpoint, scan the log rings
      and compute the candidate durable ID.  Mutates nothing but the intent
      journal and the torn/lost ring headers the tolerant scan repairs. *)

  val attach_commit : ?durable_cut:int -> prepared -> t * recovery_report
  (** Finish recovery: seal the verdict, replay the durable prefix (capped
      at [durable_cut] when the cross-shard vote shrank it), checkpoint and
      recycle.  [durable_cut] may only shrink the prefix; it is clamped to
      the checkpointed watermark from below and rejected above the scanned
      candidate. *)

  val prepared_durable : prepared -> int
  (** Candidate durable ID before any vote. *)

  val prepared_frontier : prepared -> int
  (** Checkpointed cross-shard frontier: every fragment with a global ID at
      or below it was replayed (and possibly recycled) by this region. *)

  val prepared_fragments : prepared -> (int * int * int) list
  (** Scanned fragment seals [(gtid, mask, tid)], sorted. *)

  val prepared_checkpoint_upto : prepared -> int
  (** Checkpointed replay watermark: the floor below which a durable cut
      cannot reach (replayed state cannot be un-replayed). *)

  val start : t -> unit
  (** Spawn the Persist and Reproduce daemon threads.  Must run inside
      {!Dudetm_sim.Sched.run}; call once before the first transaction. *)

  val begin_drain : t -> unit
  (** Mark the instance as draining without blocking.  The sharding layer
      sets this on every region before blocking in {!drain}: a
      combined-mode persist daemon only flushes a partial trailing group
      once draining is set, and a cross-shard replay gate on one region can
      require exactly that trailing flush on a sibling. *)

  val drain : t -> unit
  (** Block until every committed transaction is durable and reproduced.
      Call only after all application threads have stopped issuing
      transactions: the wait covers transactions committed so far, not
      ones that have yet to begin.  Raises {!Drain_stalled} with a pipeline
      diagnostic if more than {!Config.drain_budget} simulated cycles pass
      without the pipeline draining (livelock watchdog; true deadlock
      raises [Sched.Deadlock] as before). *)

  val stop : t -> unit
  (** Ask daemons to exit once drained (they are daemons, so this is only
      needed when an experiment wants their final counters flushed). *)

  (** {1 Transactions (the paper's five-call API)} *)

  val atomically : t -> thread:int -> (tx -> 'a) -> ('a * int) option
  (** [atomically t ~thread f] is [dtmBegin]; [f] runs transactionally with
      automatic conflict retry.  Returns [Some (result, tid)] after commit
      ([tid = 0] for read-only transactions) or [None] if [f] aborted via
      {!abort}.  [thread] indexes the calling Perform thread's log buffer
      (0 to [nthreads-1]); each simulated thread must use its own index. *)

  val atomically_ro :
    ?durable:bool -> t -> thread:int -> (tx -> 'a) -> ('a * int) option
  (** Read-only snapshot transaction (the DUMBO-style fast path): [f] reads
      a consistent epoch of shadow memory taken from the TM's global
      version clock, validated per read against the versioned lock table
      with timestamp extension.  It acquires no locks, appends nothing to
      the redo log, never enters the persist pipeline, and skips the
      ring-pressure throttle and admission pacing entirely — writers and
      daemons cannot observe it.  Returns [Some (result, epoch)] where
      [epoch] is the engine-space clock value the whole read-set is
      consistent at, or [None] if [f] called {!abort}.  A write, [pmalloc]
      or [pfree] inside [f] raises {!Read_only_violation}.

      [durable = true] selects durable-only mode: the epoch is pinned at
      {!ro_watermark} (local durable ID, or the installed shard/quorum
      watermark), so every value read was already crash-surviving at the
      moment of the read; a read observing newer state waits — bounded by
      the group-commit deadline — for durability to catch up.  Fresh-epoch
      mode ([durable = false], the default) may observe committed state
      that is not yet durable. *)

  val read : tx -> int -> int64
  (** [dtmRead]. *)

  val write : tx -> int -> int64 -> unit
  (** [dtmWrite]: append to the redo log, then TM-write. *)

  val abort : tx -> 'a
  (** [dtmAbort]: roll back, discard this attempt's log entries, and make
      {!atomically} return [None]. *)

  (** {1 Persistent allocation (Section 3.5)} *)

  val pmalloc : tx -> int -> int
  (** Allocate from the persistent heap inside a transaction; logged, and
      refunded automatically if the transaction aborts.  The first word is
      transactionally zeroed (which also makes the transaction a write
      transaction).  Raises {!Pmem_exhausted}. *)

  val pfree : tx -> off:int -> len:int -> unit
  (** Free a block; takes effect at commit, logged for recovery. *)

  (** {1 Durability protocol} *)

  val durable_id : t -> int
  (** Largest D with every write transaction ID ≤ D persistent. *)

  val applied_id : t -> int
  (** Largest ID whose updates Reproduce has applied to NVM (volatile
      watermark; gates shadow-page swap-in). *)

  val last_tid : t -> int
  (** Most recently committed write-transaction ID. *)

  val wait_durable : t -> int -> unit
  (** Block until [durable_id t >= tid]. *)

  val set_ro_watermark : t -> (unit -> int) option -> unit
  (** Install the watermark durable-only snapshots pin at, in engine tid
      space.  Layers that gate durability beyond the local device use
      this: the sharding layer installs per-shard {e effective} durable
      IDs (cross-shard fragments held back until their siblings are
      durable), the replication layer its quorum watermark.  The thunk
      must be a pure read — snapshot readers poll it from scheduler wait
      conditions.  [None] restores the default (the local durable ID). *)

  val ro_watermark : t -> int
  (** The watermark durable-only snapshots currently pin at. *)

  val set_drain_context : t -> (unit -> string) option -> unit
  (** Install a front-end context supplement appended to the
      {!Drain_stalled} diagnostic (the serving layer reports its queue
      depth, shed counts and admission-gate state) so an operator can
      distinguish "engine stalled" from "front end overloaded".  The thunk
      must be a pure read.  [None] removes it. *)

  (** {1 Replay gate} *)

  val set_replay_gate : t -> (Redo.item -> bool) option -> unit
  (** Install the one replay gate: Reproduce applies the next replay item
      ({!Redo.item}, taken from the persisted record itself) only once
      [gate item] holds.  The layer that owns the ordering installs it —
      the sharding layer holds back a cross-shard fragment until every
      sibling is durable ({!Redo.max_gtid}), the replication layer holds a
      follower at the cluster's quorum-acked watermark ([item.hi]).  The
      predicate must be pure — it runs inside scheduler wait conditions.
      [None] (the default) removes it. *)

  val durability_bell : t -> Dudetm_sim.Sched.bell
  (** The bell ({!Dudetm_sim.Sched.bell}) Reproduce, {!wait_durable} and
      durable-only snapshot pins wait on.  The engine rings it whenever
      the durable ID, the replay queues, the installed replay gate or
      snapshot watermark, or the stop/drain flags change.  A layer whose
      replay gate or snapshot watermark reads state of its own must ring
      it on every write to that state (the sharding layer on a frontier
      seal or restart; the replication layer when it raises a
      follower's acked watermark or the quorum watermark). *)

  val set_durability_bell : t -> Dudetm_sim.Sched.bell -> unit
  (** Replace the durability bell before {!start}: the sharding layer
      shares one bell among its engines, since each engine's replay gate
      and each shard-level durability wait read every engine's durable
      ID. *)

  (** {1 Cross-shard transactions (sharding layer hooks)} *)

  val seal_cross : tx -> gtid:int -> mask:int -> unit
  (** Request a fragment seal: if this transaction commits with writes, a
      [Cross { gtid; mask; tid }] redo entry is logged just before its end
      mark, CRC-sealed into the same durable record.  Called by the
      sharding layer once the body has finished and the set of shards
      actually written is known. *)

  val cross_frontier : t -> int
  (** Highest cross-shard global transaction ID this region has replayed
      (volatile mirror of the checkpointed frontier). *)

  (** {1 Replicated durability (replication layer hooks)}

      [lib/replica] runs one primary (a normal started instance) plus K
      followers.  The primary's Persist daemon hands every sealed record to
      {!set_ship_hook}'s callback; each follower ingests the records
      in order via {!ingest_record} and replays them with its own Reproduce
      daemon ({!start_follower}), gated by {!set_replay_gate} to the
      cluster's quorum-acknowledged watermark. *)

  val set_ship_hook : t -> (shipment -> unit) option -> unit
  (** Install the primary-side ship tap: fires on the Persist daemon
      immediately after a log record's NVM persist completes (and its
      durable IDs are published) — the earliest point at which the batch is
      sealed locally and may be offered to replicas.  The callback must not
      block (the replication layer enqueues onto simulated links). *)

  val ingest_record : t -> bytes -> bool
  (** Follower-side flusher tail: append the shipped payload to ring 0 and
      publish it exactly as the primary's flusher did (queue the replay
      item, advance the local durable watermark).
      Returns [false] (and does nothing) when the ring lacks space — the
      caller keeps the frame buffered and retries after Reproduce recycles.
      Raises [Invalid_argument] if the batch does not extend the follower's
      contiguous durable prefix (the replication layer's in-order delivery
      was violated). *)

  val start_follower : t -> unit
  (** Spawn only the supervised Reproduce daemon: a follower performs no
      transactions and persists nothing of its own. *)

  val stop_follower : t -> unit
  (** Ask a follower's Reproduce daemon to checkpoint what is applied and
      exit.  No drain: the replay gate may legitimately hold back a
      never-acknowledged suffix forever. *)

  (** {1 Degraded mode} *)

  val freeze : t -> reason:string -> unit
  (** Enter degraded read-only mode: subsequent transactional writes,
      [pmalloc] and [pfree] raise {!Read_only} with [reason]; reads and
      read-only transactions continue to work.  Used when scrub reports
      unreconstructible extents — serve what survived instead of refusing
      to attach. *)

  val read_only : t -> string option
  (** [Some reason] when frozen. *)

  (** {1 Introspection} *)

  val config : t -> Config.t

  val nvm : t -> Dudetm_nvm.Nvm.t

  val root_base : t -> int
  (** Address of the reserved root block (heap offset 0). *)

  val heap_read_u64 : t -> int -> int64
  (** Non-transactional read of the volatile heap view (for debugging and
      test assertions outside transactions). *)

  val ring_pressure : t -> bool
  (** [true] while any persistent log ring is above the backpressure
      high-water mark ({!Config.t.bp_hwm_fraction}).  Pure read — the
      admission gate of the serving front end polls it when deciding
      whether to shed, so overload is detected {e before} Perform threads
      start blocking in throttle waits. *)

  val drain_diagnostic : t -> string
  (** The diagnostic string {!drain} would raise with right now: pipeline
      watermarks, ring occupancy, daemon counters, plus any installed
      {!set_drain_context} supplement.  For tests and operator tooling. *)

  val stats : t -> Dudetm_sim.Stats.t
  (** ["txs"], ["log_entries"], ["flush_records"], ["flush_payload_bytes"],
      ["combine_writes_in"], ["combine_writes_out"],
      ["compress_in_bytes"], ["compress_out_bytes"]; supervision and
      backpressure: ["daemon_faults"], ["daemon_restarts"],
      ["daemon_backoff_cycles"], ["bp_throttle_events"],
      ["bp_throttle_cycles"], ["pmalloc_waits"], ["pmalloc_wait_cycles"],
      and high-water marks ["plog_hwm_bytes"], ["vlog_hwm_entries"]. *)

  val tm : t -> Tm.t

  val shadow_stats : t -> Dudetm_sim.Stats.t option
  (** Paging counters when running with a paged shadow. *)

  val vlog_producer_blocks : t -> int
end
