(** Interface every transactional memory in this repository implements.

    DudeTM treats the TM as an out-of-the-box component (the paper's central
    API table, Algorithm 2): it only needs [tmBegin]/[tmRead]/[tmWrite]/
    [tmAbort]/[tmEnd], with [tmEnd] returning a globally unique, monotonically
    increasing transaction ID for committed write transactions.  Both the
    TinySTM-style software TM and the simulated hardware TM implement {!S},
    so the DudeTM core is a functor over this signature. *)

(** Word store the TM executes on.  For DudeTM this is the shadow memory;
    for baselines it may be NVM-backed.  Addresses are byte offsets of
    aligned 64-bit words. *)
type store = {
  load : int -> int64;
  store : int -> int64 -> unit;
}

let mem_store mem =
  { load = (fun addr -> Bytes.get_int64_le mem addr);
    store = (fun addr v -> Bytes.set_int64_le mem addr v) }

(** Simulated cycle costs of TM operations.  Calibrated so that end-to-end
    transaction sizes land near the paper's measurements (a TATP transaction
    ~3000 cycles, TPC-C New Order ~110k cycles, empty transactions in the
    tens of millions per second). *)
type costs = {
  begin_cost : int;
  read_cost : int;
  write_cost : int;
  commit_base : int;
  commit_per_write : int;
  abort_cost : int;
}

(* Read barriers are dominated by the actual memory access (Table 4's
   TATP row shows HTM barely helps read-heavy transactions), while the
   write barrier — lock acquisition, undo logging — is the expensive
   part an HTM eliminates. *)
let default_costs =
  { begin_cost = 120;
    read_cost = 45;
    write_cost = 250;
    commit_base = 200;
    commit_per_write = 30;
    abort_cost = 200 }

exception User_abort
(** Raised by {!S.user_abort}: the application cancelled the transaction
    (e.g. insufficient balance in the paper's Algorithm 1).  Not retried. *)

exception Read_only_violation
(** Raised (by the DudeTM core) when a transaction declared read-only
    attempts a write, a persistent allocation, or a free.  Snapshot
    transactions never acquire locks or log, so there is nothing to roll
    back — the violation is a programming error, not a conflict. *)

module type S = sig
  type t
  (** Shared TM state: clock, lock metadata, statistics. *)

  type tx
  (** A running transaction attempt. *)

  val create : ?costs:costs -> ?seed:int -> store -> t

  val begin_tx : t -> tx

  val read : tx -> int -> int64

  val write : tx -> int -> int64 -> unit

  val user_abort : tx -> 'a
  (** Roll back and raise {!User_abort}. *)

  val commit : tx -> int
  (** Commit; returns the transaction ID (monotonically increasing,
      contiguous across write transactions) or 0 for a read-only
      transaction.  Raises an internal conflict exception on validation
      failure — use {!run} rather than calling this directly. *)

  val run : ?on_retry:(unit -> unit) -> t -> (tx -> 'a) -> ('a * int) option
  (** [run t f] executes [f] transactionally with automatic retry on
      conflicts, invoking [on_retry] after each rollback (DudeTM pops the
      aborted attempt's redo-log entries there).  Returns [Some (result,
      tid)] on commit and [None] if [f] called {!user_abort}. *)

  val last_tid : t -> int
  (** ID of the most recently committed write transaction. *)

  type ro
  (** A running read-only snapshot transaction (the DUMBO-style fast
      path): reads a consistent epoch of the store without acquiring
      locks, logging, or drawing a commit ID. *)

  val run_ro :
    ?pin:(unit -> int) ->
    ?pin_bell:Dudetm_sim.Sched.bell ->
    ?validate_extension:bool ->
    ?on_retry:(unit -> unit) ->
    t ->
    (ro -> 'a) ->
    ('a * int) option
  (** [run_ro t f] executes [f] as a read-only snapshot transaction and
      returns [Some (result, epoch)] where [epoch] is the clock value the
      read-set is consistent at, or [None] if [f] called {!ro_abort}.
      [pin] caps the epoch at an externally supplied watermark (the
      durable-only mode: reads observing newer state wait for the
      watermark to catch up); [pin_bell], when given, is rung on every
      write that may raise that watermark, so the wait sleeps until then.
      [validate_extension = false] is reserved
      for the seeded [Skip_snapshot_validate] checker mutant. *)

  val ro_read : ro -> int -> int64

  val ro_epoch : ro -> int
  (** Current epoch of the snapshot; monotone within one snapshot. *)

  val ro_abort : ro -> 'a
  (** Cancel the snapshot and raise {!User_abort}. *)

  val stats : t -> Dudetm_sim.Stats.t
  (** Counters: ["commits"], ["aborts"], ["reads"], ["writes"],
      ["read_only_commits"], ["backoffs"] (conflict-retry backoff pauses
      taken) and ["backoff_cycles"] (simulated cycles spent in them), plus
      implementation-specific ones. *)
end
