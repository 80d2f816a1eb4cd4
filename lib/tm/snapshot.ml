(* Read-only snapshot transactions over the TinySTM time base.

   A snapshot transaction takes an epoch from the global version clock and
   reads directly through the shadow store, validating each read against
   the versioned lock table exactly as TinySTM does — but it never acquires
   a lock, never keeps an undo list, and never draws a commit timestamp, so
   it is invisible to writers and free of the whole commit machinery.  The
   read-set invariant is maintained incrementally: every recorded read was
   consistent at [epoch] when it happened, and [epoch] only moves forward
   through a validated extension, so by the time the body returns, the
   whole read-set is a consistent cut at the final epoch and "commit" is a
   no-op.

   The optional [pin] thunk turns the snapshot into a durable-only (DUMBO-
   style) reader: the epoch may never exceed the pinned watermark, so a
   read that observes a stripe version above it waits for durability to
   catch up instead of sliding to the volatile clock.  Every value such a
   snapshot returns was written by a transaction at or below the watermark
   at the moment of the read — i.e. state that survives a power cut. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Trace = Dudetm_trace.Trace

exception Retry

type handle = {
  h_load : int -> int64;
  h_locks : Lock_table.t;
  h_clock : unit -> int;
  h_costs : Tm_intf.costs;
  h_stats : Stats.t;
  h_rng : Rng.t;
}

type ro = {
  h : handle;
  pin : (unit -> int) option;
  pin_bell : Sched.bell option;  (* rung whenever the pinned watermark may rise *)
  validate_ext : bool;
  mutable epoch : int;
  mutable reads : (int * int) list;  (* (stripe, observed version) *)
  mutable active : bool;
  reads_c : Stats.cell;  (* "snapshot_reads", resolved once per snapshot *)
}

let begin_ro ?pin ?pin_bell ?(validate_extension = true) h =
  Sched.advance h.h_costs.Tm_intf.begin_cost;
  let epoch =
    match pin with
    | Some w -> min (w ()) (h.h_clock ())
    | None -> h.h_clock ()
  in
  Trace.instant ~cat:"snapshot" "begin" epoch;
  Stats.incr h.h_stats "snapshot_begins";
  {
    h;
    pin;
    pin_bell;
    validate_ext = validate_extension;
    epoch;
    reads = [];
    active = true;
    reads_c = Stats.counter h.h_stats "snapshot_reads";
  }

let epoch ro = ro.epoch

let read_set_size ro = List.length ro.reads

(* A read-set entry is still valid if its stripe carries the version we
   observed.  An owned stripe always invalidates: snapshots own nothing,
   so a writer got there. *)
let validate ro =
  List.for_all
    (fun (stripe, v) ->
      let w = Lock_table.word ro.h.h_locks stripe in
      (not (Lock_table.owned w)) && Lock_table.value w = v)
    ro.reads

let restart ro =
  Stats.incr ro.h.h_stats "snapshot_retries";
  Trace.instant ~cat:"snapshot" "retry" ro.epoch;
  ro.active <- false;
  raise Retry

(* Slide the epoch forward far enough to admit a stripe at version [need].
   Fresh-epoch snapshots extend to the current clock; pinned snapshots
   first wait for the watermark to reach [need] (durability always catches
   up — the group-commit deadline bounds the wait), then extend to it.
   Extension revalidates the read-set; [Skip_snapshot_validate] (modelled
   by [validate_ext = false]) is the seeded bug that omits exactly this
   step and lets a reader carry values from two different epochs. *)
let extend ro ~need =
  Stats.incr ro.h.h_stats "snapshot_extends";
  Trace.instant ~cat:"snapshot" "extend" need;
  (match ro.pin with
  | None -> ()
  | Some w ->
    if w () < need then
      Sched.wait_until ?on:ro.pin_bell ~label:"snapshot durable pin" (fun () -> w () >= need));
  let target =
    match ro.pin with
    | None -> ro.h.h_clock ()
    | Some w -> min (w ()) (ro.h.h_clock ())
  in
  if ro.validate_ext && not (validate ro) then restart ro;
  if target > ro.epoch then ro.epoch <- target

let read ro addr =
  if not ro.active then invalid_arg "Snapshot.read: snapshot not active";
  Sched.advance ro.h.h_costs.Tm_intf.read_cost;
  Stats.bump ro.reads_c;
  Trace.sample ~cat:"snapshot" "read" ro.h.h_costs.Tm_intf.read_cost;
  let stripe = Lock_table.stripe_of_addr ro.h.h_locks addr in
  let rec go () =
    let w = Lock_table.word ro.h.h_locks stripe in
    if Lock_table.owned w then begin
      (* A writer holds the stripe (store may carry uncommitted data).
         Wait for the release — bounded by that writer's commit/abort —
         without touching the lock word ourselves. *)
      Sched.wait_until ~label:"snapshot stripe owned" (fun () ->
          not (Lock_table.owned (Lock_table.word ro.h.h_locks stripe)));
      go ()
    end
    else if Lock_table.value w <= ro.epoch then begin
      let value = ro.h.h_load addr in
      (* The load may yield (paged shadow access costs, swap-in waits), so
         re-check the lock word afterwards: if a writer slipped in, the
         loaded value may be newer than the recorded version — retry the
         read rather than record a lie.  An unchanged word is free and
         carries the same version. *)
      if Lock_table.word ro.h.h_locks stripe = w then begin
        ro.reads <- (stripe, Lock_table.value w) :: ro.reads;
        value
      end
      else go ()
    end
    else begin
      extend ro ~need:(Lock_table.value w);
      (* Extension may have yielded (durable pin): re-examine the stripe. *)
      go ()
    end
  in
  go ()

let abort ro =
  ro.active <- false;
  raise Tm_intf.User_abort

let finish ro =
  (* No validation, no ID draw: the per-read invariant already makes the
     read-set a consistent cut at [epoch]. *)
  ro.active <- false;
  ro.epoch

let run ?pin ?pin_bell ?validate_extension ?(on_retry = fun () -> ()) h f =
  let rec attempt round =
    Trace.span_begin ~cat:"snapshot" "ro";
    let ro = begin_ro ?pin ?pin_bell ?validate_extension h in
    match f ro with
    | result ->
      let final = finish ro in
      Stats.incr h.h_stats "snapshot_commits";
      Trace.span_end ~cat:"snapshot" "ro";
      Some (result, final)
    | exception Retry ->
      on_retry ();
      Trace.span_end ~cat:"snapshot" "ro";
      (* Same randomized capped backoff as the write path. *)
      let cap = min 4096 (64 lsl min round 10) in
      let pause = 64 + Rng.int h.h_rng cap in
      Stats.incr h.h_stats "backoffs";
      Stats.add h.h_stats "backoff_cycles" pause;
      Sched.advance pause;
      attempt (round + 1)
    | exception Tm_intf.User_abort ->
      ro.active <- false;
      on_retry ();
      Trace.span_end ~cat:"snapshot" "ro";
      None
    | exception e ->
      ro.active <- false;
      on_retry ();
      Trace.span_end ~cat:"snapshot" "ro";
      raise e
  in
  attempt 0
