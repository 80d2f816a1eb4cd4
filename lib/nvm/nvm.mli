(** Simulated persistent-memory device.

    The device keeps two images: [latest], what CPU loads observe (including
    stores still sitting in the volatile cache hierarchy), and [persisted],
    what survives a crash.  A {!store_u64} only updates [latest] and marks
    the covering cache line dirty; data reaches [persisted] exclusively via
    {!persist}, which models [CLWB]+[SFENCE] over a byte range and charges
    the paper's [max(latency, bytes/bandwidth)] cost against a serialized
    bandwidth channel.

    {!crash} drops the volatile side.  To model the CPU's {e uncontrolled}
    cache evictions — the hazard DudeTM's design sidesteps by never storing
    dirty data to NVM addresses directly — a crash can also leak a random
    subset of dirty lines into the persisted image.

    Beyond clean power cuts, the device also models {e media faults}
    ({!inject_fault}): silent bit rot in the persisted image, stuck-at
    lines that ignore writes, and poisoned (uncorrectable) lines whose
    reads raise {!Media_error} — plus an optional seeded background-decay
    process.  Media faults survive crashes; they are properties of the
    device, not of the cache. *)

type t

exception Media_error of int
(** Raised when a read reaches a poisoned (uncorrectable) region of the
    media; the payload is the byte address of the poisoned line's base.
    Models the machine-check a real platform raises on an uncorrectable
    NVM read. *)

(** A media fault applied to the {e persisted} image. *)
type fault =
  | Bit_rot of { off : int; bit : int }
      (** Silently flip bit [bit land 7] of persisted byte [off]. *)
  | Stuck_line of { line : int }
      (** The line keeps its current persisted content forever: subsequent
          flushes are silently dropped (and the cached copy reverts on
          flush, as a real read-after-writeback would observe). *)
  | Poison of { line : int }
      (** Reads of the line raise {!Media_error} until it is repaired by
          rewriting: flushing fresh data over a poisoned line clears the
          poison. *)

val create : ?charge_time:bool -> ?label:string -> Pmem_config.t -> size:int -> t
(** [create cfg ~size] makes a device of [size] bytes, zero-filled and fully
    persistent.  [charge_time] (default true) controls whether persists
    advance the simulated clock.  [label] (default ["nvm"]) names the
    device in trace per-device accounting; the sharding layer labels each
    region's device ["shard<i>"]. *)

val size : t -> int

val label : t -> string
(** The trace device label given at {!create}. *)

val config : t -> Pmem_config.t

val line_size : t -> int

(** {1 Media faults} *)

val inject_fault : t -> fault -> unit
(** Apply one fault to the persisted image (counted by
    {!media_faults_injected}).  [Bit_rot] is also reflected into the
    volatile image when the covering line is clean, since a clean cache
    line mirrors the media. *)

val is_poisoned : t -> line:int -> bool

val is_stuck : t -> line:int -> bool

val poisoned_lines : t -> int list
(** Currently poisoned lines, ascending (ground truth, for tests). *)

val stuck_lines : t -> int list

val set_decay : t -> (float * int * int) option -> unit
(** [set_decay t (Some (rate, epoch, seed))] turns on seeded background
    decay: every [epoch] simulated cycles, an expected [rate] fraction of
    persisted lines suffers a random single-bit flip.  Decay is evaluated
    lazily at persist boundaries.  [None] turns it off. *)

val decay_tick : t -> unit
(** Force one decay epoch immediately (tests and campaigns). *)

val media_faults_injected : t -> int
(** Faults injected so far, including background decay. *)

val media_faults_detected : t -> int

val media_faults_repaired : t -> int

val note_media_detected : t -> int -> unit
(** Bump the detected-fault counter: called by layers (recovery, scrub)
    that recognise corruption via checksums or {!Media_error}. *)

val note_media_repaired : t -> int -> unit

(** {1 Volatile-side access (CPU loads/stores)} *)

val load_u64 : t -> int -> int64

val store_u64 : t -> int -> int64 -> unit

val load_u8 : t -> int -> int

val store_u8 : t -> int -> int -> unit

val load_bytes : t -> int -> int -> bytes

val view_latest : t -> int -> int -> (bytes -> int -> int -> 'a) -> 'a
(** [view_latest t off len f] reads the range like {!load_bytes}, poison
    check included, but hands it to [f] in place ({!Mem.view}). *)

val store_bytes : t -> int -> bytes -> unit

(** {1 Persistence} *)

val persist : t -> off:int -> len:int -> unit
(** Flush every dirty line intersecting [\[off, off+len)] to the persisted
    image and drain the store queue.  Charges
    [max(persist_latency, dirty_bytes / bandwidth)] cycles, with the
    bandwidth component serialized across all users of the device. *)

val persist_all : t -> unit

val persist_ranges : t -> (int * int) list -> unit
(** [persist_ranges t ranges] flushes every dirty line covered by any of the
    [(off, len)] ranges under a {e single} persist ordering: one latency,
    one bandwidth booking for the total flushed bytes.  Used by Reproduce
    to persist a whole batch of reproduced writes at once. *)

val dirty_lines : t -> int
(** Number of lines currently dirty (not yet persisted). *)

val set_persist_hook : t -> (unit -> unit) option -> unit
(** Install (or clear) a callback fired at every persist boundary: once when
    a persist ordering is issued ({!persist}, {!persist_ranges}) and once
    after each dirty line is copied into the persisted image.  The
    systematic crash checker ([lib/check]) counts these firings and raises
    from the hook to cut power at an exact persist/fence/line boundary —
    crashing between two firings leaves exactly the lines flushed so far
    durable, i.e. a torn persist.  The hook does not fire during {!crash}
    eviction or while no hook is installed. *)

(** {1 Crash and recovery} *)

val crash : ?evict_fraction:float -> ?rng:Dudetm_sim.Rng.t -> t -> unit
(** Simulate a power failure: each dirty line independently survives with
    probability [evict_fraction] (default 0 — none survive, the adversarial
    tests sweep this), then all volatile state is discarded and [latest] is
    reloaded from the persisted image.  Media faults (poison, stuck lines)
    persist across the crash. *)

val last_crash_survivors : t -> int list
(** The dirty lines that leaked into the persisted image during the most
    recent {!crash}, ascending.  Together with the eviction RNG seed this
    makes evicting crashes exactly replayable (the checker records both in
    its failure one-liners). *)

val persisted_u64 : t -> int -> int64
(** Read the persisted image directly (for tests and recovery checks).
    Raises {!Media_error} on a poisoned line. *)

val persisted_bytes : t -> int -> int -> bytes
(** Read a persisted byte range (scrub and checksum audits).  Raises
    {!Media_error} if any covered line is poisoned. *)

val view_persisted : t -> int -> int -> (bytes -> int -> int -> 'a) -> 'a
(** {!persisted_bytes} handed to [f] in place ({!Mem.view}). *)

val persisted_bytes_equal : t -> int -> bytes -> bool
(** [persisted_bytes_equal t off b] checks the persisted image against [b]. *)

(** {1 Accounting} *)

val persisted_write_bytes : t -> int
(** Total bytes ever flushed to the persisted image (the paper's "NVM write
    traffic"). *)

val persist_ops : t -> int
(** Number of persist orderings issued. *)

val reset_counters : t -> unit
