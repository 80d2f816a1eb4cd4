module Nvm = Dudetm_nvm.Nvm
module Plog = Dudetm_log.Plog
module Log_entry = Dudetm_log.Log_entry
module Config = Dudetm_core.Config
module Checkpoint = Dudetm_core.Checkpoint
module Crcdir = Dudetm_core.Crcdir
module Badline = Dudetm_core.Badline
module Rjournal = Dudetm_core.Rjournal
module Redo = Dudetm_core.Redo
module Trace = Dudetm_trace.Trace

type report = {
  ckpt : [ `Ok | `Repaired | `Degraded | `Fatal ];
  poison_cleared : int;
  extents_checked : int;
  extents_ok : int;
  extents_repaired : int;
  bad_extents : int list;
  stuck_remapped : int;
  badline_table_full : bool;
  ring_corrupted_records : int;
  ring_quarantined_lines : int;
  rings_reformatted : int;
}

let pp_report ppf r =
  let ckpt =
    match r.ckpt with
    | `Ok -> "ok"
    | `Repaired -> "repaired"
    | `Degraded -> "degraded"
    | `Fatal -> "FATAL"
  in
  Format.fprintf ppf
    "checkpoint:%s poison_cleared:%d extents:%d/%d ok, %d repaired, %d unrepairable%s@ \
     stuck_remapped:%d%s rings: %d corrupted records, %d quarantined lines, %d reformatted"
    ckpt r.poison_cleared r.extents_ok r.extents_checked r.extents_repaired
    (List.length r.bad_extents)
    (match r.bad_extents with
    | [] -> ""
    | l -> " [" ^ String.concat "," (List.map string_of_int l) ^ "]")
    r.stuck_remapped
    (if r.badline_table_full then " (bad-line table FULL)" else "")
    r.ring_corrupted_records r.ring_quarantined_lines r.rings_reformatted

let clean r =
  r.ckpt = `Ok && r.poison_cleared = 0 && r.extents_repaired = 0 && r.bad_extents = []
  && r.stuck_remapped = 0 && r.ring_corrupted_records = 0 && r.rings_reformatted = 0

(* Zero every poisoned line and flush it: the model for clearing an
   uncorrectable location by writing fresh data over it.  The zeros are
   almost certainly wrong content — the extent audit below decides whether
   live log records can reconstruct it. *)
let clear_poison nvm =
  let ls = Nvm.line_size nvm in
  let lines = Nvm.poisoned_lines nvm in
  List.iter
    (fun l ->
      Nvm.store_bytes nvm (l * ls) (Bytes.make ls '\000');
      Nvm.persist nvm ~off:(l * ls) ~len:ls)
    lines;
  List.length lines

(* Per-extent live writes: addr -> value maps in replay order (later
   transactions win), keyed by the extent each write lands in. *)
let live_writes_by_extent items =
  let by_extent : (int, (int * int64) list ref) Hashtbl.t = Hashtbl.create 64 in
  let add extent w =
    match Hashtbl.find_opt by_extent extent with
    | Some l -> l := w :: !l
    | None -> Hashtbl.add by_extent extent (ref [ w ])
  in
  List.iter
    (fun (it : Redo.item) ->
      List.iter
        (fun e ->
          match e with
          | Log_entry.Write { addr; value } ->
            add (addr / Config.crc_extent) (addr, value);
            if (addr + 7) / Config.crc_extent <> addr / Config.crc_extent then
              add ((addr + 7) / Config.crc_extent) (addr, value)
          | _ -> ())
        it.entries)
    items;
  by_extent

(* After a persist, a stuck heap line silently kept its old content; catch
   it by reading the written word back from the persisted image and remap
   the line in the bad-line table. *)
let check_written_back nvm badlines writes ~stuck_remapped ~table_full =
  (* Only the last write per address is expected to read back; earlier
     values in replay order are legitimately overwritten. *)
  let final = Hashtbl.create 8 in
  List.iter (fun (addr, value) -> Hashtbl.replace final addr value) writes;
  Hashtbl.iter
    (fun addr value ->
      if Nvm.persisted_u64 nvm addr <> value then begin
        let l = addr / Nvm.line_size nvm in
        if not (Badline.mem badlines l) then begin
          if Badline.add badlines l then incr stuck_remapped else table_full := true
        end
      end)
    final

let scrub ?(repair = true) ?(probe_stuck = false) cfg nvm =
  Trace.span ~cat:"recovery" "scrub" @@ fun () ->
  Config.validate cfg;
  if Nvm.size nvm <> Config.nvm_size cfg then
    invalid_arg "Scrub.scrub: device size does not match the configuration";
  (* Recovery-time writes are ordered behind the intent journal (see
     {!Dudetm_core.Rjournal}).  A previous scrub may have crashed between
     writing a probe pattern into a heap line and restoring the original
     word; undo that first, before any audit trusts the heap. *)
  let journal = Redo.recovery_journal cfg nvm in
  let poison_cleared = if repair then clear_poison nvm else 0 in
  if poison_cleared > 0 then begin
    Nvm.note_media_detected nvm poison_cleared;
    Nvm.note_media_repaired nvm poison_cleared
  end;
  let ckpt_status =
    Checkpoint.scrub ~repair nvm ~base:(Config.meta_base cfg) ~size:cfg.Config.meta_size
  in
  let badlines, _ = Badline.attach nvm cfg in
  (* Ring audit: the tolerant scan finds and quarantines mid-ring damage;
     a ring whose header is unreadable is reformatted (with a salvaged
     sequence number) even under [repair:false], since nothing can be read
     from it either way. *)
  let scans =
    Array.init (Config.plog_regions cfg) (fun r ->
        snd (Plog.attach_scan nvm ~base:(Config.plog_base cfg r) ~size:cfg.Config.plog_size))
  in
  let rings_reformatted =
    Array.fold_left (fun acc s -> acc + if s.Plog.header_lost then 1 else 0) 0 scans
  in
  let ring_corrupted_records =
    Array.fold_left (fun acc s -> acc + s.Plog.corrupted_records) 0 scans
  in
  let ring_quarantined_lines =
    Array.fold_left (fun acc s -> acc + s.Plog.quarantined_lines) 0 scans
  in
  if ring_corrupted_records > 0 then Nvm.note_media_detected nvm ring_corrupted_records;
  if ckpt_status = `Fatal then
    {
      ckpt = `Fatal;
      poison_cleared;
      extents_checked = 0;
      extents_ok = 0;
      extents_repaired = 0;
      bad_extents = [];
      stuck_remapped = 0;
      badline_table_full = false;
      ring_corrupted_records;
      ring_quarantined_lines;
      rings_reformatted;
    }
  else begin
    if ckpt_status = `Repaired then Nvm.note_media_repaired nvm 1;
    let _, state =
      Checkpoint.attach nvm ~base:(Config.meta_base cfg) ~size:cfg.Config.meta_size
    in
    (* Only records recovery would replay may repair an extent. *)
    let rings = Redo.scan cfg ~upto:state.Checkpoint.reproduced_upto scans in
    let by_extent = live_writes_by_extent (fst (Redo.live rings ~durable:rings.Redo.durable)) in
    let crcdir = Crcdir.attach nvm cfg in
    let stuck_remapped = ref 0 in
    let table_full = ref false in
    let extents_ok = ref 0 in
    let extents_repaired = ref 0 in
    let bad = ref [] in
    let checked = ref 0 in
    (* Seeded detection-bypass mutant (campaign self-test only): with
       [Skip_crc_verify] the directory audit is skipped wholesale, so heap
       bit rot sails through recovery and wrong data is served silently —
       exactly what [dudetm check --media] must catch. *)
    if cfg.Config.fault <> Config.Skip_crc_verify then
      for e = 0 to Crcdir.n_extents crcdir - 1 do
        incr checked;
        match Crcdir.verify_extent crcdir e with
        | `Ok -> incr extents_ok
        | `Mismatch | `Poisoned -> (
          Nvm.note_media_detected nvm 1;
          let live = Hashtbl.find_opt by_extent e in
          match (repair, live) with
          | true, Some writes ->
            (* The entry may simply be stale: Reproduce rewrote the extent
               after the last checkpoint and only the still-live records
               re-cover it.  Replaying them (in order; recovery will do the
               same, idempotently) and resealing the entry restores the
               audit invariant. *)
            let ws = List.rev !writes in
            List.iter (fun (addr, value) -> Nvm.store_u64 nvm addr value) ws;
            Nvm.persist_ranges nvm (List.map (fun (addr, _) -> (addr, 8)) ws);
            check_written_back nvm badlines ws ~stuck_remapped ~table_full;
            Crcdir.update crcdir [ e ];
            incr extents_repaired;
            Nvm.note_media_repaired nvm 1
          | _ ->
            (* No live record covers this extent, so its checkpointed
               content is unreconstructible from the logs: a real data
               loss.  Report it — never silently serve the corrupt bytes. *)
            bad := e :: !bad)
      done;
    (* Optional stuck-line sweep of the heap: write-probe each line and
       read it back from the persisted image; a line that kept its old
       content drops writes and gets remapped. *)
    if repair && probe_stuck then begin
      let ls = Nvm.line_size nvm in
      let probed_any = ref false in
      for l = 0 to (cfg.Config.heap_size / ls) - 1 do
        if not (Badline.mem badlines l) then begin
          let original = Nvm.persisted_u64 nvm (l * ls) in
          let pattern = Int64.lognot original in
          (* Seal the probe intent before the destructive write: a crash
             between the pattern persist and the restore below would
             otherwise leave the complement in live data with nothing
             pointing at it.  Each intent supersedes the previous line's
             (that probe completed), so one Idle at the end suffices. *)
          Option.iter (fun j -> Rjournal.write j (Rjournal.Probe { line = l; original })) journal;
          probed_any := true;
          Nvm.store_u64 nvm (l * ls) pattern;
          Nvm.persist nvm ~off:(l * ls) ~len:8;
          if Nvm.persisted_u64 nvm (l * ls) <> pattern then begin
            Nvm.note_media_detected nvm 1;
            if Badline.add badlines l then incr stuck_remapped else table_full := true
          end
          else begin
            Nvm.store_u64 nvm (l * ls) original;
            Nvm.persist nvm ~off:(l * ls) ~len:8
          end
        end
      done;
      if !probed_any then Option.iter (fun j -> Rjournal.write j Rjournal.Idle) journal
    end;
    {
      ckpt = ckpt_status;
      poison_cleared;
      extents_checked = !checked;
      extents_ok = !extents_ok;
      extents_repaired = !extents_repaired;
      bad_extents = List.sort compare !bad;
      stuck_remapped = !stuck_remapped;
      badline_table_full = !table_full;
      ring_corrupted_records;
      ring_quarantined_lines;
      rings_reformatted;
    }
  end
