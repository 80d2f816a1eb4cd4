(** Offline media scrub and repair.

    Run {e after} a crash and {e before} {!Dudetm_core.Dudetm.Make.attach}:
    engine recovery recycles every log ring, destroying the still-live
    records this pass needs for repair.  The scrub walks the whole device:

    - {b Poison}: every poisoned (uncorrectable) line is cleared by
      rewriting it with zeros; whether the lost content is reconstructible
      is decided by the audits below.
    - {b Checkpoint}: both slots are validated; a damaged slot is rewritten
      from the survivor ({!Dudetm_core.Checkpoint.scrub}).
    - {b Log rings}: the fault-tolerant scan quarantines mid-ring damage
      and reformats rings with unreadable headers (with a salvaged
      sequence number), reporting every sealed record lost.
    - {b Heap extents}: each extent is re-verified against the persistent
      CRC directory.  A mismatching extent covered by still-live log
      records (live by recovery's own rule, {!Dudetm_core.Redo.live}) is
      repaired by replaying their writes and resealed; one with no live
      coverage is an unreconstructible loss, reported in [bad_extents] —
      corruption is never silently served.
    - {b Stuck lines}: repair writes are read back from the persisted
      image; a line that kept its old content is remapped via the
      persistent bad-line table (optionally, [probe_stuck] write-probes
      every heap line).

    Repairs issue persist orderings, which advance the simulated clock
    (like engine recovery itself, the pass may run inside or outside
    {!Dudetm_sim.Sched.run}). *)

type report = {
  ckpt : [ `Ok | `Repaired | `Degraded | `Fatal ];
      (** checkpoint-slot audit; [`Fatal] means neither slot validates and
          the instance cannot recover (extent audit is skipped) *)
  poison_cleared : int;  (** poisoned lines rewritten (device-wide) *)
  extents_checked : int;
  extents_ok : int;
  extents_repaired : int;  (** mismatches fixed by live-record replay *)
  bad_extents : int list;
      (** extents whose checkpointed content is lost: they mismatch the
          CRC directory and no live record covers them *)
  stuck_remapped : int;  (** lines newly recorded in the bad-line table *)
  badline_table_full : bool;
  ring_corrupted_records : int;
  ring_quarantined_lines : int;
  rings_reformatted : int;  (** rings whose header was lost *)
}

val scrub : ?repair:bool -> ?probe_stuck:bool -> Dudetm_core.Config.t -> Dudetm_nvm.Nvm.t -> report
(** [scrub cfg nvm] audits (and with [repair], default true, repairs) the
    device.  [repair:false] only reports — except that rings with
    unreadable headers are still reformatted, since nothing can be read
    from them either way.  [probe_stuck] (default false) adds a write-probe
    sweep of every heap line to find stuck lines that no repair write
    happens to touch. *)

val clean : report -> bool
(** No fault of any kind was found or repaired. *)

val pp_report : Format.formatter -> report -> unit
