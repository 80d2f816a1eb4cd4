(** Read-only snapshot transactions: lock-free, log-free, persist-free.

    A snapshot transaction pins an epoch on TinySTM's global version clock
    and reads the shadow store directly, validating every read against the
    versioned lock table with the same timestamp-extension rule the write
    path uses — but it acquires no locks, keeps no undo list, and draws no
    commit timestamp, so writers never see it and the persist pipeline
    never hears of it.

    Two modes:
    - {e fresh-epoch} ([pin = None]): the epoch starts at the current
      clock and extends toward it — reads see the newest committed state,
      which may not be durable yet.
    - {e durable-only} ([pin = Some watermark], DUMBO-style): the epoch
      may never exceed the watermark; a read observing a newer stripe
      waits for durability to catch up.  Every returned value was written
      by a transaction at or below the watermark at the moment of the
      read, i.e. state that survives a power cut — possibly stale.

    The module is expressed over a {!handle} rather than a concrete TM so
    the lock-table/clock plumbing stays in one place;
    [Tinystm.snapshot_handle] builds one. *)

exception Retry
(** Internal: the snapshot could not extend (a concurrent commit
    invalidated the read-set).  Absorbed by {!run}, which restarts the
    body at a fresh epoch after a randomized backoff. *)

type handle = {
  h_load : int -> int64;  (** direct word load from the shadow store *)
  h_locks : Lock_table.t;
  h_clock : unit -> int;  (** the global version clock *)
  h_costs : Tm_intf.costs;
  h_stats : Dudetm_sim.Stats.t;
  h_rng : Dudetm_sim.Rng.t;
}

type ro
(** A running read-only snapshot. *)

val begin_ro :
  ?pin:(unit -> int) -> ?pin_bell:Dudetm_sim.Sched.bell -> ?validate_extension:bool -> handle -> ro
(** Open a snapshot.  [pin] selects durable-only mode; [pin_bell], when
    given, is a bell rung on every write that may raise the pinned
    watermark, so a read waiting for it sleeps until then
    ({!Dudetm_sim.Sched.wait_until}); [validate_extension]
    (default [true]) exists only so the seeded [Skip_snapshot_validate]
    mutant can omit the read-set revalidation on extension. *)

val read : ro -> int -> int64
(** Read a word at the snapshot's epoch, extending it (validated) when the
    word committed later.  May raise {!Retry} — use {!run}. *)

val epoch : ro -> int
(** Current epoch; monotone within a snapshot. *)

val read_set_size : ro -> int

val abort : ro -> 'a
(** Cancel the snapshot; raises {!Tm_intf.User_abort}. *)

val finish : ro -> int
(** Close the snapshot and return its final epoch.  No validation and no
    ID draw: the per-read invariant already makes the read-set a
    consistent cut at the epoch. *)

val run :
  ?pin:(unit -> int) ->
  ?pin_bell:Dudetm_sim.Sched.bell ->
  ?validate_extension:bool ->
  ?on_retry:(unit -> unit) ->
  handle ->
  (ro -> 'a) ->
  ('a * int) option
(** Run a snapshot body with automatic restart on failed extension.
    Returns [Some (result, final_epoch)], or [None] if the body called
    {!abort}. *)
