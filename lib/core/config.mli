(** DudeTM instance configuration and NVM layout.

    The simulated NVM device is partitioned as:
    {v
      [0, heap_size)                      persistent data heap
      [heap_size, +meta_size)             meta block (allocator checkpoint,
                                          reproduced-upto watermark)
      [.., +crcdir_size)                  per-extent heap CRC directory
      [.., +badline_size)                 persistent bad-line table
      [.., +rjournal_size)                recovery intent journal
      [.., +hjournal_size)                migration handoff journal
      [.., +plog_regions * plog_size)     persistent redo-log rings
    v} *)

exception Invalid_config of string
(** Raised by {!validate} for inconsistent configurations.  A single clear
    error at [create]/[attach] time instead of downstream failures. *)

(** How a transaction acknowledges durability (Section 5.1's evaluated
    systems). *)
type mode =
  | Async  (** decoupled: [dtmEnd] returns after Perform (DUDETM) *)
  | Sync  (** the Perform thread flushes its own log and waits
              (DUDETM-Sync) *)
  | Inf  (** decoupled with unbounded volatile log buffers (DUDETM-Inf) *)

(** Deliberately seeded crash-ordering bugs, used {e only} to validate the
    systematic crash checker ([lib/check]): a checker that cannot detect
    these mutants proves nothing about the real engine.  Production
    configurations always use [No_fault]. *)
type fault =
  | No_fault
  | Early_durable_publish
      (** Persist step publishes the durable ID {e before} the log record's
          persist fence: a crash in the window loses acknowledged
          transactions. *)
  | Unfenced_reproduce
      (** Reproduce skips the persist fence on reproduced data before the
          checkpoint watermark advances: a crash after the checkpoint loses
          heap data the recovery believes is already home. *)
  | Skip_crc_verify
      (** Scrub skips re-verifying heap extents against the CRC directory:
          media corruption of checkpointed heap data goes undetected and
          wrong values are silently served after recovery.  Validates the
          media-fault campaign ([dudetm check --media]). *)
  | Skip_recovery_journal
      (** [attach] and [Scrub.scrub] skip the recovery intent journal:
          recovery-time NVM writes (stuck-line probes, replay verdicts) are
          no longer ordered behind a sealed intent, so a crash in the middle
          of recovery can leave a probe pattern in live data or a diverging
          recovery report.  Validates the nested-crash campaign
          ([dudetm check --recovery]). *)
  | Skip_fragment_gate
      (** The sharding layer ([lib/shard], which owns the cross-shard
          replay gate) installs no gate on its engines, so Reproduce
          applies a cross-shard fragment before its sibling fragments are
          durable on their shards: a crash in the window can leave a
          partial cross-shard transaction surviving recovery.  Validates
          the sharded crash campaign ([dudetm check --shards]). *)
  | Skip_batch_seal
      (** The Persist seal stage publishes a batch's durable IDs when
          the batch is {e sealed} (combined, CRC'd and queued for flushing)
          instead of when its log record's NVM persist completes: a
          mid-pipeline crash — batch [k] durable, batch [k+1]
          sealed-but-unflushed — loses acknowledged transactions.
          Validates the batch-boundary campaign ([dudetm check --batch]).
          Requires [combine]. *)
  | Skip_quorum_gate
      (** The replication layer acknowledges a transaction at the
          {e primary-local} durable watermark instead of the quorum vector
          watermark: a primary death while the sealed batch is still in
          flight to the replicas loses acknowledged transactions on
          failover.  Validates the replicated-durability campaign
          ([dudetm check --replica]). *)
  | Skip_handoff_seal
      (** The live-migration coordinator flips key-range ownership in
          volatile routing {e without} sealing the handoff record and the
          new partition descriptor first: a power cut after the flip makes
          recovery read the stale descriptor, route the migrated range back
          to the source shard, and lose every write acknowledged on the new
          owner.  Validates the migration campaign
          ([dudetm check --migrate]). *)
  | Skip_snapshot_validate
      (** Read-only snapshot transactions skip the lock-table revalidation
          when extending their epoch past a concurrent commit: a reader
          that spans a writer's commit can return values from {e two}
          different epochs (a torn read-set) — e.g. one half of an
          invariant-preserving pair update.  Validates the snapshot
          campaign ([dudetm check --snapshot]). *)
  | Skip_admission_gate
      (** The serving front end ([lib/serve]) runs with its admission gate
          stubbed out: overload is never shed (the bounded request queue
          grows without limit) and write acknowledgements are released at
          {e commit} instead of at the shard's durable watermark — the
          gate is the one component that both admits requests and releases
          replies against the acked prefix.  A power cut mid-burst then
          loses acknowledged requests.  Validates the serving campaign
          ([dudetm check --serve]). *)

type t = {
  heap_size : int;  (** bytes of persistent data heap *)
  root_size : int;  (** reserved root block at heap offset 0 *)
  nthreads : int;  (** Perform threads *)
  mode : mode;
  pmem : Dudetm_nvm.Pmem_config.t;
  shadow_mode : Dudetm_shadow.Shadow.mode;
  shadow_frames : int option;  (** [None]: shadow as large as the heap *)
  vlog_capacity : int;  (** volatile log entries per thread *)
  plog_size : int;  (** bytes per persistent log ring *)
  meta_size : int;
  group_size : int;  (** transactions per persist group *)
  combine : bool;  (** cross-transaction write combination *)
  compress : bool;  (** LZ-compress combined groups before flushing *)
  persist_threads : int;
  batch_min_entries : int;
      (** floor of the adaptive per-record entry bound: the Persist daemon
          never waits for fewer entries than this before the deadline *)
  batch_max_entries : int;
      (** hard cap on entries per persisted log record; bounds both the
          single-flush channel occupancy (the commit-latency tail) and the
          volatile state lost by a crash mid-batch *)
  batch_deadline : int;
      (** max simulated cycles an open batch may age before it is flushed
          regardless of size; group commit never delays a transaction's
          durability by more than this *)
  reproduce_batch : int;  (** transactions applied per reproduce round *)
  checkpoint_records : int;  (** checkpoint + recycle every N completed log records *)
  drain_budget : int;
      (** simulated cycles {!Dudetm.drain} may consume before raising
          [Drain_stalled] with a daemon-state diagnostic *)
  daemon_fault_rate : float;
      (** probability (seeded via [seed]) that a Persist/Reproduce daemon
          suffers an injected transient failure at a work-unit boundary;
          the supervisor restarts it from its persistent position.  0.0 in
          production; used by the daemon fault-injection campaign. *)
  daemon_backoff_base : int;
      (** simulated cycles of supervisor backoff after the first daemon
          restart; doubles per consecutive failure *)
  daemon_backoff_cap : int;  (** upper bound on supervisor backoff *)
  bp_hwm_fraction : float;
      (** ring-occupancy fraction beyond which Perform threads are
          throttled (bounded wait) before starting new transactions *)
  bp_wait_budget : int;
      (** max simulated cycles a Perform thread blocks per backpressure
          throttle event before proceeding anyway *)
  pmalloc_wait_budget : int;
      (** max simulated cycles [pmalloc] waits for Reproduce to free space
          before raising [Pmem_exhausted] *)
  ack_timeout : int;
      (** max simulated cycles a durability wait may block on the {e quorum}
          ack watermark (replicated durability, [lib/replica]) before the
          cluster degrades to primary-only durability and reports
          [Degraded_quorum] — never an unbounded block behind a partitioned
          replica *)
  seed : int;
  fault : fault;  (** seeded checker-validation bug; [No_fault] in production *)
}

val default : t
(** 4-thread, 16 MiB heap, async mode, 1 GB/s / 1000-cycle NVM, no
    paging, no combination — the paper's base configuration scaled to
    simulator-friendly sizes. *)

val crc_extent : int
(** Bytes of heap covered per CRC-directory entry (512); {!validate}
    rejects a heap it does not divide or an NVM line size it is not a
    multiple of. *)

val badline_capacity : int
(** Stuck lines the persistent bad-line table can remap (64). *)

val with_mode : mode -> t -> t

val with_pmem : Dudetm_nvm.Pmem_config.t -> t -> t

val plog_regions : t -> int
(** Number of persistent log rings: one per Perform thread, or a single
    merged ring when combination groups transactions across threads. *)

val heap_base : t -> int

val meta_base : t -> int

val crcdir_base : t -> int
(** Base of the per-extent heap CRC directory ([heap_size / crc_extent]
    u64 slots, line-aligned). *)

val crcdir_size : t -> int

val badline_base : t -> int
(** Base of the persistent bad-line (stuck-line remap) table. *)

val badline_size : t -> int

val rjournal_base : t -> int
(** Base of the double-slot CRC-sealed recovery intent journal. *)

val rjournal_size : t -> int

val hjournal_base : t -> int
(** Base of the migration handoff journal: two double-slot CRC-sealed
    records (handoff phase at [+0], partition descriptor at [+256]) used by
    the shard-migration coordinator on device 0 of a sharded instance. *)

val hjournal_size : t -> int

val plog_base : t -> int -> int
(** Base offset of ring [i]. *)

val nvm_size : t -> int
(** Total device size implied by the layout (line-aligned). *)

val validate : t -> unit
(** Raise {!Invalid_config} for inconsistent configurations (e.g.
    combination with several persist threads, heap not page-aligned,
    non-positive budgets, fractions outside [0, 1]). *)
