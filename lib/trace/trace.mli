(** Cycle-accurate tracing and profiling for the simulated machine.

    A global, span-based tracer driven by the deterministic scheduler clock.
    Instrumentation sites throughout the stack (Perform, the Persist and
    Reproduce daemons, the NVM device, the log rings, recovery and scrub)
    emit {e spans} (begin/end pairs, per simulated thread), {e instants}
    (point events) and {e counters} into a bounded ring buffer, and feed
    per-phase duration histograms (log₂ buckets) plus per-thread NVM
    bandwidth accounting.

    Design constraints, in priority order:

    - {b Observation only.}  No function here ever advances the simulated
      clock or touches simulation state, so enabling tracing cannot change
      the behaviour of a run: statistics and the final persisted image are
      byte-identical with tracing on or off (a property the test suite
      pins).
    - {b Zero allocation when disabled.}  Every emitting primitive first
      checks a single flag and returns; with tracing off the instrumented
      hot paths allocate nothing and execute a handful of instructions.
      (The {!span} convenience wrapper is the one exception: its thunk is
      allocated by the caller regardless — use {!span_begin}/{!span_end}
      on hot paths.)
    - {b Bounded memory.}  Events land in a fixed-capacity ring; once it
      wraps, the oldest events are dropped (and counted), while histograms
      and NVM accounting keep exact totals for the whole run.

    The module is a process-wide singleton, matching the scheduler: the
    simulation is single-OS-thread by construction.  Timestamps and thread
    identity come from a time source the scheduler registers at load time
    ({!set_time_source}); outside a simulation both default to 0/"main". *)

(** {1 Lifecycle} *)

val enabled : unit -> bool
(** Cheap flag test; instrumentation sites guard any argument computation
    that allocates behind it. *)

val enable : ?capacity:int -> unit -> unit
(** Switch tracing on with a fresh, empty ring of [capacity] events
    (default 65536, clamped to at least 16).  Resets all histograms,
    accounting and violation counters. *)

val disable : unit -> unit
(** Switch tracing off.  Collected data stays readable until {!reset} or
    the next {!enable}. *)

val reset : unit -> unit
(** Drop all collected data (ring, histograms, accounting, violations),
    keeping the enabled/disabled state. *)

(** {1 Emitting} *)

val span_begin : cat:string -> string -> unit
(** [span_begin ~cat name] opens span [name] on the current thread.  Spans
    on one thread must nest: the matching {!span_end} must close the most
    recently opened span. *)

val span_end : cat:string -> string -> unit
(** [span_end ~cat name] closes the innermost open span of the current
    thread and records its duration in the [cat.name] histogram.  A close
    with no open span counts as an {e orphan}; a close whose [cat]/[name]
    differ from the innermost open span counts as {e mismatched} — both are
    reported by {!validate}. *)

val span : cat:string -> string -> (unit -> 'a) -> 'a
(** [span ~cat name f] wraps [f ()] in a span, closing it on any exit —
    including exceptions and the scheduler's daemon-kill unwind — so
    validation stays clean even when a daemon dies mid-work-unit.
    Allocates its thunk even when disabled; not for hot paths. *)

val instant : cat:string -> string -> int -> unit
(** [instant ~cat name arg] records a point event with one integer
    payload. *)

val counter : cat:string -> string -> int -> unit
(** [counter ~cat name v] records the current value of a counter (e.g.
    ring occupancy); {!counter_series} reads the retained time series
    back. *)

val sample : cat:string -> string -> int -> unit
(** [sample ~cat name cycles] records a duration into the [cat.name]
    histogram {e without} emitting a ring event: exact per-phase cycle
    attribution for events too hot to buffer individually (per-write log
    appends). *)

val nvm_transfer : dev:string -> bytes:int -> cycles:int -> busy:int -> unit
(** Attribute one NVM persist ordering ([bytes] flushed, [cycles] the
    issuing thread pays for it, latency included) to the current thread
    {e and} to device [dev], add [busy] cycles of channel occupancy (the
    bandwidth component only) to the device's busy time, and emit an
    instant under category ["nvm"].  Called by the device at every
    charge; the per-thread breakdown is the paper's "who pays for
    persistence" lens, the per-device one shows how sharding spreads the
    traffic across independent NVM channels.  [dev] is a plain (non-option)
    argument so the disabled-mode call stays allocation-free. *)

val link_transfer : link:string -> bytes:int -> cycles:int -> unit
(** Attribute one replication-interconnect frame delivery ([bytes] on the
    wire, [cycles] of channel occupancy) to link [link] and emit an instant
    under category ["link"].  Same hot-path discipline as {!nvm_transfer}:
    [link] is a plain argument, so the disabled-mode call allocates
    nothing. *)

(** {1 Scheduler integration} *)

val set_time_source : now:(unit -> int) -> self:(unit -> int * string) -> unit
(** Install the clock and thread-identity providers.  The scheduler
    registers itself at module-load time; both must be safe to call outside
    a simulation (returning 0 / [(0, "main")]). *)

val note_thread : tid:int -> string -> unit
(** Record a thread's name for export metadata (idempotent). *)

val instant_at : ts:int -> tid:int -> cat:string -> string -> int -> unit
(** Like {!instant} with an explicit timestamp and thread: for emitters
    (the scheduler itself) that hold the thread's clock but cannot perform
    effects on its fiber. *)

(** {1 Reading back} *)

type phase = {
  ph_cat : string;
  ph_name : string;
  ph_count : int;  (** spans/samples recorded *)
  ph_total : int;  (** exact total cycles *)
  ph_max : int;  (** exact maximum duration *)
  ph_p50 : int;  (** approximate, from log₂ buckets (bucket lower bound) *)
  ph_p99 : int;
}

val phases : unit -> phase list
(** Per-phase attribution, sorted by descending total cycles. *)

type nvm_acct = {
  nv_thread : string;
  nv_bytes : int;  (** bytes flushed by persist orderings this thread issued *)
  nv_cycles : int;  (** channel cycles charged to this thread *)
  nv_ops : int;  (** persist orderings issued *)
}

val nvm_accts : unit -> nvm_acct list
(** Per-thread NVM traffic, sorted by descending bytes.  Dividing
    [nv_cycles] by the run's wall cycles gives that daemon's channel
    utilization. *)

type nvm_dev_acct = {
  nd_dev : string;  (** device label (see {!Dudetm_nvm.Nvm.create}) *)
  nd_bytes : int;
  nd_cycles : int;  (** cycles charged to issuers, latency included *)
  nd_ops : int;
  nd_busy : int;  (** channel-occupied cycles: the device's busy time *)
}

val nvm_dev_accts : unit -> nvm_dev_acct list
(** Per-device NVM traffic, sorted by descending bytes.  Each shard owns
    its own labeled device, so this is the per-shard channel-utilization
    breakdown. *)

type link_acct = {
  lk_link : string;  (** link label, e.g. ["ship:replica1"] *)
  lk_bytes : int;  (** wire bytes delivered (faulted frames included) *)
  lk_cycles : int;  (** serialized channel occupancy charged *)
  lk_frames : int;  (** frames sent on the link *)
}

val link_accts : unit -> link_acct list
(** Per-link replication traffic, sorted by descending bytes: how much of
    the interconnect each ship/ack direction consumed, including
    retransmissions. *)

val counter_series : cat:string -> string -> (int * int) list
(** [(ts, value)] pairs for one counter, oldest first, from the retained
    window of the ring. *)

val span_overlap : cat:string -> string -> string -> int
(** [span_overlap ~cat a b] — total cycles during which a retained
    [cat.a] span on one thread runs concurrently with a retained [cat.b]
    span on a {e different} thread.  Reconstructed from the ring's
    retained window (spans whose close fell off the ring are ignored).
    This is how the pipelined persist path proves genuine overlap: the
    combiner's [persist.combine] of batch [k+1] against the flusher's
    [persist.flush] of batch [k]. *)

val events : unit -> int
(** Ring events emitted since {!enable} (including dropped ones). *)

val dropped : unit -> int
(** Ring events lost to wrap-around. *)

(** {1 Self-validation} *)

val validate : ?total_cycles:int -> unit -> string list
(** Check the collected trace's structural invariants: no orphan or
    mismatched span closes, per-thread cycle-monotone timestamps, and no
    span left open.  Given the run's wall-cycle count [total_cycles], also
    that no NVM device's busy time exceeds it (device utilization <= 1).
    Returns human-readable violations ([[]] = clean). *)

val open_span_count : unit -> int
(** Spans currently open across all threads (0 after a balanced run). *)

(** {1 Export} *)

val to_chrome_json : ?cycles_per_us:float -> unit -> string
(** The retained event window as Chrome [trace_event] JSON (the
    ["traceEvents"] array format understood by [chrome://tracing] and
    Perfetto).  Timestamps are converted to microseconds at
    [cycles_per_us] (default 3400, the simulated 3.4 GHz core). *)

val summary_json : ?total_cycles:int -> unit -> string
(** Machine-readable profile summary: per-phase count/total/max/p50/p99,
    per-thread and per-device NVM bytes/cycles/ops (with utilization when
    [total_cycles], the run's wall-cycle count, is given: a thread's
    cycles, or a device's busy time, over [total_cycles]), ring-occupancy
    series (category ["plog"], counter ["used"]), event/drop counts and
    validation status. *)
