(** Deterministic cooperative scheduler for simulated threads.

    The simulator models the paper's multicore testbed with logical threads
    driven by OCaml 5 effect handlers.  Each thread owns a local cycle clock;
    the scheduler always resumes the runnable thread with the smallest clock
    (conservative discrete-event order), so a whole experiment — including
    races between Perform, Persist and Reproduce threads — replays
    deterministically.

    Threads communicate through shared mutable state and synchronise with
    {!wait_until}.  A thread is charged simulated time explicitly via
    {!advance}; while blocked, its clock tracks global simulated time so
    waiting is charged as busy-polling, which is how the paper's
    implementation waits too.

    One scheduling step costs O(waiters + log ready threads), not O(all
    threads): paused and not-yet-started threads wait in a min-heap on
    [(clock, id)], and only the threads blocked in {!wait_until} are
    visited at every step — and of those, only the ones whose {!bell} rang
    have their predicate evaluated. *)

exception Deadlock of string
(** Raised when no thread can make progress: every live non-daemon thread is
    blocked on a false predicate.  The payload lists the blocked threads. *)

(** {1 Scheduling strategies}

    Every scheduling point where more than one thread is runnable is a
    {e decision point}.  The default strategy resolves it conservatively
    (smallest local clock wins — discrete-event order); the systematic
    checker ([lib/check]) plugs in alternatives to explore other legal
    interleavings while keeping every run perfectly reproducible. *)

type strategy =
  | Min_clock
      (** Resume the runnable thread with the smallest [(clock, id)] — the
          conservative discrete-event order used by all benchmarks. *)
  | Choice of (step:int -> candidates:int -> int)
      (** At decision point number [step] (counted from 0, only points with
          [candidates >= 2] runnable threads count), pick the candidate at
          the returned index in [(clock, id)] order.  Index 0 reproduces
          {!Min_clock} at that point; out-of-range indices clamp to 0.  The
          function must be deterministic in [(step, candidates)] for runs to
          be replayable. *)

val min_clock : strategy

val random_priority : seed:int -> strategy
(** Seeded random preemption: each decision point independently picks a
    uniformly random runnable thread.  Stateless (the choice is a hash of
    [(seed, step)]), so the same seed always yields the same schedule and
    the strategy value can be reused across runs. *)

val run : ?trace:bool -> ?strategy:strategy -> (unit -> unit) -> int
(** [run main] executes [main] as the first logical thread, scheduling it and
    everything it {!spawn}s until all non-daemon threads finish; remaining
    daemon threads are then cancelled.  Returns the final simulated time in
    cycles.  Must not be nested.  [strategy] (default {!Min_clock}) resolves
    scheduling decision points. *)

val spawn : ?daemon:bool -> string -> (unit -> unit) -> int
(** [spawn name f] creates a new logical thread starting at the caller's
    current clock and returns its id.  Daemon threads ([daemon] defaults to
    [false]) do not keep the simulation alive: once only daemons remain they
    are cancelled by raising {!Killed} inside them.  Only valid inside
    {!run}. *)

exception Killed
(** Raised inside a daemon thread when the simulation shuts down.  Daemon
    loops may catch it to run cleanup; it is absorbed by the scheduler. *)

val advance : int -> unit
(** [advance n] charges the calling thread [n] cycles and is a scheduling
    point: every other thread that would run first, runs first.  Under
    {!Min_clock} without [trace], when the caller would win that step
    anyway it returns without a context switch, having done the step's
    work in place (polling the waiters, dragging the blocked ones, raising
    {!global_now}); the schedule is the same either way.  Outside {!run}
    it is a no-op, so cost-annotated library code can also be exercised by
    plain unit tests. *)

val yield : unit -> unit
(** [yield ()] is [advance 1]: the minimal preemption point. *)

(** {1 Waiting}

    A wait names the state it reads with a {e bell}: a stamp that every
    writer of that state rings.  The scheduler re-evaluates a belled
    waiter's predicate only once its bell has rung since the predicate last
    read false; an unbelled waiter is re-evaluated at every step. *)

type bell

val bell : unit -> bell
(** A fresh bell. *)

val ring : bell -> unit
(** [ring b] marks the state behind [b] as changed: the next scheduling
    step re-evaluates every waiter on [b].  Costs one increment; ringing
    when nothing a waiter reads has changed is harmless. *)

val wait_until : ?on:bell -> ?label:string -> (unit -> bool) -> unit
(** [wait_until p] blocks the calling thread until [p ()] is true.  [p] must
    be a pure read of shared state.  While blocked, the thread's clock
    follows simulated time.  Outside {!run}, returns immediately if [p ()]
    holds and raises {!Deadlock} otherwise.

    The scheduler evaluates [p] at most once per scheduling step.  Without
    [on], every step re-polls it; with [on = b], a step skips it while [b]
    has not rung since [p] last read false, and the thread stays blocked.
    The ring contract makes the skip exact: {b every write to state that
    [p] reads rings [b] before the writer's next scheduling point}
    ({!advance}, {!yield}, {!wait_until}).  A skipped predicate would then
    read false anyway, so the schedule is the one the every-step poll
    gives, under {!Min_clock} and {!Choice} alike.  A write that can only
    make [p] false need not ring.  Waits on state that changes without a
    ring — simulated time, or state owned by code that does not know the
    bell — stay unbelled.  {!audit} checks the contract.

    Predicates are still the simulator's hottest host code: unbelled
    ones run every step, belled ones after every ring.  Besides being
    pure, [p] should neither allocate
    nor scan unbounded state.  [p] must not call {!now}, {!self},
    {!advance} or {!spawn}: it runs on the scheduler's stack or inside
    whichever thread is advancing, so those would answer for, or act on,
    the wrong thread.  The known scans are the serving session's
    ["serve window"] and ["serve tail"] waits (over the session's
    descriptor slots) and the shard replay gate's
    [Dudetm_shard.Frontier.is_durable_upto] (over the cross-shard sets
    above the published frontier). *)

exception Missed_ring of string
(** Raised by {!audit}; the payload is the wait's label. *)

val audit : (unit -> 'a) -> 'a
(** [audit f] runs [f] (which may call {!run} any number of times) with
    the reference poll: at every step the scheduler also re-evaluates each
    waiter its bell let it skip, and raises {!Missed_ring} naming the wait
    if that predicate reads true — a write that did not ring the bell.
    The schedule is unchanged.  A miss is raised from [audit] even if the
    simulated code swallowed the first raise.  For tests. *)

val now : unit -> int
(** Current local clock of the calling thread (0 outside {!run}). *)

val self : unit -> int
(** Id of the calling thread (0 outside {!run}). *)

val self_name : unit -> string
(** Name of the calling thread (["<main>"] outside {!run}). *)

val global_now : unit -> int
(** High-water mark of simulated time across all threads so far. *)

val running : unit -> bool
(** Whether the caller executes inside an active simulation. *)
