(** Systematic crash-consistency and schedule exploration.

    The checker runs any {!Dudetm_baselines.Ptm_intf.t} system (DudeTM in
    its variants, Mnemosyne, NVML) against small {e counter-family}
    workloads whose entire durable state is a deterministic function of the
    recovered commit counter, then tries to break the system two ways:

    - {b Crash enumeration}: the simulated NVM fires a hook at every
      persist boundary — once when a persist ordering is issued and once
      after each cache line reaches the persisted image (see
      {!Dudetm_nvm.Nvm.set_persist_hook}).  A first run counts the
      boundaries; subsequent runs cut power at chosen boundaries, so
      crashes land between any two line flushes (torn persists included),
      recover, and check the oracle.
    - {b Schedule exploration}: the scheduler's strategy interface
      ({!Dudetm_sim.Sched.strategy}) is driven either by seeded random
      preemption or by a bounded exhaustive DFS over the first scheduling
      decision points, each explored schedule ending in a full-power-loss
      crash after quiescence.

    The oracle checks, after every recovery:
    - {b atomicity}: the recovered state equals the model state for {e some}
      commit prefix [k] (no torn transaction is ever visible);
    - {b durability of acknowledged transactions}: [k] covers every
      durable ID the system ever reported before the crash;
    - {b durable-ID sanity}: the reported durable ID never regresses and
      never passes the last issued transaction ID (sampled by a monitor
      thread during the run);
    - {b recovery agreement}: when the system reports a recovered durable
      ID (DudeTM's attach), it matches the recovered state;
    - {b no loss at quiescence}: a crash after [drain] recovers every
      committed transaction.

    Torn log records are covered implicitly: a recovery that accepts one
    replays garbage and fails the atomicity check.

    Failures are shrunk to a minimal [(workload, schedule, crash point)]
    triple and printed as a replayable [dudetm check ...] one-liner. *)

(** {1 Systems under test} *)

type recovered = {
  rec_durable : int option;
      (** durable ID the system's own recovery reports; [None] when the
          system has no recovery-time durable ID *)
  rec_peek : int -> int64;  (** read the recovered data image *)
}

type instance = {
  ptm : Dudetm_baselines.Ptm_intf.t;
  inst_nvm : Dudetm_nvm.Nvm.t;
  recover : unit -> recovered;
      (** called once, after {!Dudetm_nvm.Nvm.crash}, with the hook
          cleared *)
}

type sut = {
  sut_name : string;  (** the [--system] name *)
  sut_fault : Dudetm_core.Config.fault;  (** seeded mutant in force *)
  sut_static : bool;  (** only static-transaction workloads apply *)
  fresh : unit -> instance;  (** a brand-new system on a fresh device *)
}

val dude : ?fault:Dudetm_core.Config.fault -> unit -> sut
(** DudeTM over the software TM.  [fault] seeds a deliberate ordering bug
    (see {!Dudetm_core.Config.fault}) for checker self-validation. *)

val dude_combine : ?fault:Dudetm_core.Config.fault -> unit -> sut
(** DudeTM with cross-transaction combination and compression. *)

val dude_htm : unit -> sut
(** DudeTM over the simulated HTM (with global-lock fallback). *)

val mnemosyne : unit -> sut

val nvml : unit -> sut

val sut_of_name : ?fault:Dudetm_core.Config.fault -> string -> sut
(** ["dude" | "dude-combine" | "dude-htm" | "mnemosyne" | "nvml"]; raises
    [Invalid_argument] otherwise.  [fault] only applies to DudeTM. *)

val sut_names : string list

val sut_label : sut -> string
(** The system name, suffixed [+MUTANT] when a mutant is seeded. *)

(** {1 Workloads} *)

type workload = {
  wl_name : string;
  threads : int;
  txs_per_thread : int;
  wl_static : bool;  (** write set is declarable up front *)
  wl_wset : int list option;  (** declared write set for static systems *)
  tx_body : Dudetm_baselines.Ptm_intf.tx -> unit;
  wl_root : int;  (** address of the commit counter *)
  check_state : peek:(int -> int64) -> k:int -> string option;
      (** [None] when the image is exactly the model state after [k]
          commits; [Some reason] otherwise *)
}

val counter : threads:int -> txs:int -> workload
(** Each transaction reads the root counter [c], stamps slot
    [(c+1) mod slots] with [c+1] and writes the root back — the state after
    [k] commits depends only on [k]. *)

val overlap : threads:int -> txs:int -> workload
(** Adversarial variant: every transaction stamps {e two} overlapping
    slots, so consecutive transactions write intersecting sets. *)

val counter1 : threads:int -> txs:int -> workload
(** Single-cell counter with declared write set [[root]] — the only
    workload expressible as a static transaction (NVML). *)

val workload_of_name : threads:int -> txs:int -> string -> workload
(** ["counter" | "overlap" | "counter1"]. *)

val workloads_for : sut -> threads:int -> txs:int -> workload list
(** The workloads applicable to a system (static systems only get
    {!counter1}). *)

(** {1 Budgets} *)

type budget = {
  crash_sites : int;  (** crash boundaries explored under the default schedule *)
  sched_seeds : int;  (** random-preemption seeds *)
  crash_sites_per_seed : int;
  exhaustive_runs : int;  (** bounded-DFS schedule explorations *)
  exhaustive_depth : int;  (** decision points eligible for branching *)
}

val tier1_budget : unit -> budget
(** The bounded budget used by [dune runtest], scaled by
    {!Campaign.env_level}: [DUDETM_CHECK_BUDGET=n] multiplies the
    exploration counts by [n]; [DUDETM_CHECK_DEEP=1] switches to
    {!deep_budget}. *)

val deep_budget : budget
(** The budget behind [dudetm check --deep]. *)

val quick_budget : budget
(** The bounded tier-1 numbers with environment knobs ignored
    ([dudetm check --quick]). *)

(** {1 Checking} *)

type sched_spec =
  | Default  (** min-clock discrete-event order *)
  | Seed of int  (** seeded random preemption *)
  | Prefix of int list  (** scripted decision-point choices, then default *)

val sched_to_string : sched_spec -> string

val sched_of_string : string -> sched_spec
(** Inverse of {!sched_to_string} (["default"], ["seed:N"],
    ["prefix:c0,c1,..."]); raises [Invalid_argument] on junk. *)

val check_system :
  ?budget:budget ->
  ?log:(string -> unit) ->
  ?evict:float * int ->
  sut ->
  workload list ->
  Campaign.report
(** Run the full exploration.  [evict] runs every crash under the
    cache-eviction adversary: a seeded random subset of dirty lines
    survives each power cut ({!Dudetm_nvm.Nvm.crash}).  On the first
    oracle violation the failing case is shrunk (default schedule
    preferred, then fewest transactions, then earliest crash boundary)
    before being reported, with the system, workload, thread and
    transaction counts, schedule and eviction adversary as its coordinates
    and the crash boundary as its one cut. *)

val replay :
  ?evict:float * int -> sut -> workload -> sched:sched_spec -> crash:int option -> string option
(** Re-run one exact case; [Some reason] if the oracle still fails. *)

val count_sites : sut -> workload -> sched:sched_spec -> int
(** Number of crash boundaries one run of this case passes through. *)


(** {1 Campaigns}

    Every campaign runs through {!run} on the {!Campaign} kernel and
    returns a {!Campaign.report}.  Only its scenario and oracle are its
    own:

    - {b [Engine]}: {!check_system} over one system ([--system]).
    - {b [Media]}: after a crash (or at quiescence) seeded media faults —
      bit rot in the live heap bytes, ring rot (never the last sealed
      record, which is indistinguishable from a torn tail), poisoned and
      stuck lines — are injected into the persisted image, the offline
      scrub runs, then recovery.  Oracle: {b never silently wrong} — the
      recovered state passes the crash oracle, or the damage was reported
      (non-clean scrub, corrupted records or quarantined lines).  Per seed:
      heap rot and mixed faults at quiescence, mixed faults at a
      seed-derived boundary.  Catches {!Dudetm_core.Config.Skip_crc_verify}.
    - {b [Recovery]}: recovery must itself be crash-consistent.  For each
      first power cut (quiescence plus seed-derived boundaries) it cuts
      power inside [attach] (all boundaries) and inside the repairing,
      probing scrub (sampled, always including the probes of the live
      lines), and two deep inside the recovery of a crashed recovery.
      Oracle: a final uninterrupted attach reproduces the uninterrupted
      recovery's verdict field-for-field and passes the crash oracle.
      Catches {!Dudetm_core.Config.Skip_recovery_journal}.
    - {b [Daemons]}: Persist and Reproduce workers raise seeded transient
      faults ([--fault-rate]) and are restarted by their supervisor; a
      quiescent run and a mid-run power cut per seed must still satisfy the
      crash oracle.  A sweep without a single restart fails as vacuous.
    - {b [Shards]}: cross-shard transfers over a sharded instance, cut on
      every shard's device, once per persist policy ([--scenario]): plain
      (sequential transfers, per-thread rings) and combined (three
      concurrent workers over combined group commit).  Oracle: no partial
      transfer (pairwise stamps agree, the balance sum over
      durably-seeded shards holds) and nothing the vector watermark
      acknowledged is lost.  Catches
      {!Dudetm_core.Config.Skip_fragment_gate} in either scenario.
    - {b [Batch]}: the pipelined combine/flush group commit with small
      batches, cut at every boundary (including between a batch's seal and
      its record's fence) and, two deep, in the recovered engine's second
      life.  Oracle: the durable prefix — everything the watermark
      acknowledged survives, recovery's durable ID matches the image, every
      slot holds the prefix's last write.  Catches
      {!Dudetm_core.Config.Skip_batch_seal}.
    - {b [Replica]}: a primary plus K replicas over clean, faulty
      (drop / duplicate / reorder / delay / corrupt) and partitioned links;
      the primary is killed at sampled boundaries of its device and a
      replica promoted.  Oracle: no quorum-acked transaction lost, the
      promoted image is the durable-prefix model state, a quorum-drained
      stop loses nothing.  Catches {!Dudetm_core.Config.Skip_quorum_gate}.
    - {b [Migrate]}: a live 4->8 resharding under traffic, cut on all
      devices (in the double-write window, between the flip's seals,
      mid-cleanup) and, two deep, between recovery's own handoff seals.
      Oracle: the persisted descriptor routes every key to exactly one
      shard, no acknowledged write is lost, the completed schedule
      converges with every moved range recycled.  Catches
      {!Dudetm_core.Config.Skip_handoff_seal}.
    - {b [Snapshot]}: pair writers against a read-only snapshot reader in
      volatile and durable mode.  Oracle: no completed read-set is torn,
      and every durable-mode value survives the cut.  Catches
      {!Dudetm_core.Config.Skip_snapshot_validate}.
    - {b [Serve]}: closed-loop clients through the serving front end's
      queue, admission gate and durable-watermark acker on 2 shards.
      Oracle: no half-applied request, no acknowledged request lost, no
      phantom, quiescent exactness.  Catches
      {!Dudetm_core.Config.Skip_admission_gate}. *)

val run :
  ?fault:Dudetm_core.Config.fault ->
  ?level:Campaign.level ->
  ?log:(string -> unit) ->
  ?args:(string * string) list ->
  ?cuts:int list ->
  Campaign.campaign ->
  Campaign.report
(** Run one campaign.  [args] are CLI flags with their values; each must be
    one the campaign declares (a failure's [args] always are), and [cuts]
    may go only as deep as the campaign re-cuts (three for [Recovery], two
    for [Batch] and [Migrate], one otherwise) — anything else raises
    [Invalid_argument].  Non-empty [cuts] replay exactly one case (with
    [--scenario] for [Replica] and [Shards], [--leg] for [Recovery],
    [--daemon-seed] for [Daemons], [--media-seed] and [--faults] for
    [Media], or [--sched] for [Engine], which also replays without cuts),
    so
    [run ~fault:f.fault ~args:f.args ~cuts:f.cuts f.campaign] reproduces a
    failure [f].  [level] (default {!Campaign.env_level}) sizes the sweep;
    {!Campaign.Quick} also shrinks [Recovery] and [Daemons] to their
    smoke sizes. *)
