(** The redo-record path: how a persisted log record becomes replay work.

    The redo log is the only channel by which data reaches NVM home
    locations (Section 3), so every consumer of a persisted record — the
    Persist daemons and follower ingest queueing it for Reproduce,
    Reproduce applying it, recovery replaying the durable prefix, and the
    offline scrub repairing heap extents from it — makes the same
    decisions about it.  Each decision is made here, once:

    - {b record → items}: {!items} splits a record into replay items;
    - {b apply}: {!apply} writes one item onto the home image;
    - {b live after a crash}: {!scan} and {!live} compute the contiguous
      durable prefix past the checkpoint and the items inside it;
    - {b probe undo}: {!recovery_journal} undoes a probe a crashed scrub
      left in the heap. *)

type item = {
  lo : int;  (** first transaction ID *)
  hi : int;  (** last transaction ID ([= lo] on plain rings) *)
  entries : Dudetm_log.Log_entry.t list;  (** redo entries, end marks included *)
}
(** A unit of Reproduce work: one transaction of a plain record, or one
    whole combined record, covering the contiguous IDs [lo..hi].  A
    combined record that carries a cross-shard fragment holds only that
    transaction, so gating or discarding its item never touches a
    neighbour. *)

val txs : Dudetm_log.Log_entry.t list -> item list
(** Split a committed entry run into one item per transaction, in log
    order. *)

val items : Config.t -> Dudetm_log.Log_entry.t list -> item list
(** Record → replay items: one item per transaction on plain rings, one
    item per record when [combine] (a combined record is replayed
    atomically).  The shard replay gate ({!max_gtid}) and the recovery
    vote therefore act only at record boundaries, which is why the
    combined Persist cut seals every transaction with a [Cross] entry
    alone: such a record's item is exactly that one fragment.  Empty for a
    record carrying no transaction. *)

val span : item list -> (int * int) option
(** Lowest and highest transaction ID the items cover ([None] when
    empty). *)

val max_gtid : item -> int
(** Highest cross-shard global ID sealed into the item's entries; 0 when
    it carries no fragment. *)

val apply :
  Dudetm_nvm.Nvm.t ->
  alloc:Alloc.t ->
  dirty:(int, unit) Hashtbl.t ->
  ranges:(int * int) list ref ->
  frontier:int ref ->
  item ->
  unit
(** Apply one item to the home image: store every write (collecting its
    range in [ranges] for the caller's single persist ordering and marking
    the CRC extents it touches in [dirty]), replay its allocations and
    frees into [alloc], and raise [frontier] to its highest cross-shard
    global ID.  Persists nothing and charges no cost. *)

type scan = {
  upto : int;  (** checkpointed replay watermark *)
  durable : int;
      (** largest contiguous extension of [upto] over the scanned IDs *)
  items : item list;  (** every surviving record's items, by [lo] *)
  tids : (int, unit) Hashtbl.t;  (** every scanned transaction ID *)
  fragments : (int * int * int) list;  (** scanned [(gtid, mask, tid)] seals, sorted *)
}

val scan : Config.t -> upto:int -> Dudetm_log.Plog.scan array -> scan
(** Decode every surviving record of the scanned rings into items and
    compute the durable ID. *)

val live : scan -> durable:int -> item list * item list
(** The live-after-crash rule: [(kept, dropped)] where an item is kept iff
    it lies past the checkpoint and at or below [durable]
    ([lo > upto && hi <= durable]).  Recovery replays exactly the kept
    items; scrub may repair heap extents only from them. *)

val recovery_journal : Config.t -> Dudetm_nvm.Nvm.t -> Rjournal.t option
(** Attach the recovery intent journal and undo any probe pattern a
    crashed scrub left in the heap, before anything trusts a heap byte.
    [None] under the [Skip_recovery_journal] mutant, which bypasses the
    journal (recovery-time writes are then not ordered behind an
    intent). *)
