(* Sharded DudeTM: N independent persistent regions — each with its own NVM
   device, plog rings, allocator/checkpoint pair and supervised
   Persist/Reproduce daemons — behind one transactional API.

   Single-shard transactions run entirely on their home region and cost
   nothing extra.  Cross-shard transactions take a global mutex, quiesce the
   touched regions (so no TM conflict — hence no retry — can strike while
   several regions' transactions are nested), run one sub-transaction per
   region, and seal every written fragment with a shared global transaction
   ID drawn under the mutex.

   Soundness hinges on the global cross-shard frontier GF: the largest g
   such that every cross-shard transaction with gtid <= g has ALL its
   fragments durable on their own regions.  A fragment is replayed to NVM
   only once its gtid is at or below GF (the engine's replay gate), the
   durability acknowledgement for a region stops just below its first
   fragment beyond GF (the vector watermark), and recovery runs a fixpoint
   vote that discards every fragment of an incomplete set on every region.
   Gating on GF rather than on the fragment's own set matters: with three
   regions, an incomplete set g' below a complete set g on a shared region
   would otherwise cut an already-acknowledged g out of the durable prefix
   during recovery.

   The gate and the vote see replay items, and a combined persist record
   is one item.  Under combined group commit the engine's Persist cut
   therefore seals every fragment in a record of its own, so holding back
   or discarding a fragment never takes a neighbouring transaction with
   it; any [group_size] is sound. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config

exception Cross_abort

module Make (Tm : Dudetm_tm.Tm_intf.S) = struct
  module Engine = Dudetm_core.Dudetm.Make (Tm)

  (* What a committed transaction must wait on to be crash-safe. *)
  type ack =
    | Ack_read_only
    | Ack_local of { shard : int; tid : int }
    | Ack_cross of { gtid : int }

  type t = {
    cfg : Config.t;
    nshards : int;
    engines : Engine.t array;
    blocked : bool array;  (* cross path is quiescing this shard *)
    active : int array;  (* in-flight single-shard transactions *)
    mutable cross_lock : bool;
    gf : Frontier.t;  (* sibling sets, the global frontier, the vector watermark *)
    durable_bell : Sched.bell;
        (* every engine's durability bell, also rung on a frontier seal or
           restart: gates the replay gates, the acks and the snapshot pins.
           A draw only adds a Pending set, which makes nothing durable, so
           it need not ring. *)
    lock_bell : Sched.bell;  (* rung on writes to [cross_lock], [blocked], [active] *)
    stats : Stats.t;
  }

  type tx = {
    sh : t;
    dtxs : Engine.tx option array;  (* open sub-transaction per shard *)
    shards_mask : int;  (* declared shards *)
    mutable written_mask : int;  (* shards actually written *)
    mutable gtid : int;  (* 0 until a fragment seal is drawn *)
  }

  (* ------------------------------------------------------------------ *)
  (* Construction                                                        *)
  (* ------------------------------------------------------------------ *)

  (* The engines' replay gate: an item carrying a fragment replays only
     once every sibling set at or below its global ID is durable.  The
     Skip_fragment_gate mutant (checker self-test only) installs none. *)
  let install_gates t =
    if t.cfg.Config.fault <> Config.Skip_fragment_gate then
      Array.iter
        (fun e ->
          Engine.set_replay_gate e
            (Some
               (fun it ->
                 let g = Dudetm_core.Redo.max_gtid it in
                 g = 0 || Frontier.is_durable_upto t.gf g)))
        t.engines

  (* Durable-only snapshot readers on shard [s] pin at its entry of the
     vector watermark, not at the raw engine durable counter: a fragment
     beyond the global frontier can still be discarded by the recovery
     vote, so durable-mode reads must not observe it.  [Frontier.effective]
     is side-effect free, as the snapshot pin wait requires. *)
  let install_ro_watermarks t =
    Array.iteri
      (fun s e -> Engine.set_ro_watermark e (Some (fun () -> Frontier.effective t.gf s)))
      t.engines

  let check_nshards nshards =
    if nshards < 1 || nshards > 60 then
      invalid_arg "Shard: nshards must be within [1, 60] (fragment masks are int bitsets)"

  let build cfg ~nshards engines =
    let durable_bell = Sched.bell () in
    Array.iter (fun e -> Engine.set_durability_bell e durable_bell) engines;
    let t =
      {
        cfg;
        nshards;
        engines;
        blocked = Array.make nshards false;
        active = Array.make nshards 0;
        cross_lock = false;
        gf = Frontier.create ~nshards ~durable:(fun s -> Engine.durable_id engines.(s));
        durable_bell;
        lock_bell = Sched.bell ();
        stats = Stats.create ();
      }
    in
    install_gates t;
    install_ro_watermarks t;
    t

  let create ~nshards cfg =
    check_nshards nshards;
    let engines =
      Array.init nshards (fun i -> Engine.create ~nvm_label:("shard" ^ string_of_int i) cfg)
    in
    build cfg ~nshards engines

  let start t = Array.iter Engine.start t.engines

  let nshards t = t.nshards

  let config t = t.cfg

  let engine t s = t.engines.(s)

  let nvm t s = Engine.nvm t.engines.(s)

  let stats t = t.stats

  let last_cross_gtid t = Frontier.last t.gf

  (* ------------------------------------------------------------------ *)
  (* Transactions                                                        *)
  (* ------------------------------------------------------------------ *)

  let check_shard tx s =
    if s < 0 || s >= tx.sh.nshards then invalid_arg "Shard: bad shard index";
    if tx.shards_mask land (1 lsl s) = 0 then
      invalid_arg "Shard: transaction touched an undeclared shard"

  let dtx_of tx s =
    check_shard tx s;
    match tx.dtxs.(s) with Some d -> d | None -> assert false

  let read tx ~shard addr = Engine.read (dtx_of tx shard) addr

  let write tx ~shard addr v =
    let d = dtx_of tx shard in
    tx.written_mask <- tx.written_mask lor (1 lsl shard);
    Engine.write d addr v

  let pmalloc tx ~shard len =
    let d = dtx_of tx shard in
    tx.written_mask <- tx.written_mask lor (1 lsl shard);
    Engine.pmalloc d len

  let pfree tx ~shard ~off ~len =
    let d = dtx_of tx shard in
    tx.written_mask <- tx.written_mask lor (1 lsl shard);
    Engine.pfree d ~off ~len

  let abort _tx = raise Cross_abort

  let popcount mask =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go mask 0

  (* Single-shard fast path: an ordinary engine transaction, throttled only
     by a cross-shard quiesce of its home region.  The active counter keeps
     the quiesce honest: a cross transaction proceeds only once every
     in-flight single-shard transaction on a touched region has finished. *)
  let run_single t ~thread s f =
    Sched.wait_until ~on:t.lock_bell ~label:"shard blocked" (fun () -> not t.blocked.(s));
    t.active.(s) <- t.active.(s) + 1;
    Fun.protect
      ~finally:(fun () ->
        t.active.(s) <- t.active.(s) - 1;
        Sched.ring t.lock_bell)
    @@ fun () ->
    let tx =
      { sh = t; dtxs = Array.make t.nshards None; shards_mask = 1 lsl s;
        written_mask = 0; gtid = 0 }
    in
    match
      Engine.atomically t.engines.(s) ~thread (fun dtx ->
          tx.dtxs.(s) <- Some dtx;
          f tx)
    with
    | Some (v, 0) -> Some (v, Ack_read_only)
    | Some (v, tid) -> Some (v, Ack_local { shard = s; tid })
    | None -> None
    | exception Cross_abort -> None

  (* Cross-shard path.  Under the global mutex, with the touched regions
     quiesced, sub-transactions nest in ascending shard order; the user body
     runs innermost.  Quiescence means no conflicts, so no TM retry can
     re-run an inner body whose sub-transaction already committed.  The
     global ID is drawn (and the registry slot marked Pending) only after
     the body succeeds — an aborted transaction never consumes a gtid, so
     gtids stay dense and the frontier never waits on a hole. *)
  let run_cross t ~thread shards f =
    let mask = List.fold_left (fun m s -> m lor (1 lsl s)) 0 shards in
    Sched.wait_until ~on:t.lock_bell ~label:"shard cross lock" (fun () -> not t.cross_lock);
    t.cross_lock <- true;
    List.iter (fun s -> t.blocked.(s) <- true) shards;
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun s -> t.blocked.(s) <- false) shards;
        t.cross_lock <- false;
        Sched.ring t.lock_bell)
    @@ fun () ->
    Sched.wait_until ~on:t.lock_bell ~label:"shard quiesce"
      (fun () -> List.for_all (fun s -> t.active.(s) = 0) shards);
    Stats.incr t.stats "cross_txs";
    let tx =
      { sh = t; dtxs = Array.make t.nshards None; shards_mask = mask;
        written_mask = 0; gtid = 0 }
    in
    let frags = ref [] in
    let rec open_levels = function
      | [] ->
        let v = f tx in
        (* Body done: the set of written regions is known.  Seal every
           written fragment with a fresh global ID before any level
           commits, so each fragment's redo record carries its sibling
           mask. *)
        if popcount tx.written_mask >= 2 then begin
          let g = Frontier.draw t.gf in
          tx.gtid <- g;
          List.iter
            (fun s ->
              if tx.written_mask land (1 lsl s) <> 0 then
                Engine.seal_cross (dtx_of tx s) ~gtid:g ~mask:tx.written_mask)
            shards
        end;
        v
      | s :: rest -> (
        match
          Engine.atomically t.engines.(s) ~thread (fun dtx ->
              tx.dtxs.(s) <- Some dtx;
              open_levels rest)
        with
        | Some (v, tid) ->
          if tid > 0 then frags := (s, tid) :: !frags;
          v
        | None ->
          (* Engine-level user abort cannot happen here: the shard layer
             aborts by raising Cross_abort through every level. *)
          assert false)
    in
    match open_levels shards with
    | v ->
      (* Every level committed.  Registration closes the Pending window:
         until now the frontier (and therefore every region's replay gate
         and acknowledgement watermark) treated gtid as not-yet-durable. *)
      if tx.gtid > 0 then begin
        Frontier.seal t.gf tx.gtid
          (List.filter (fun (s, _) -> tx.written_mask land (1 lsl s) <> 0) !frags);
        Sched.ring t.durable_bell
      end;
      let ack =
        if tx.gtid > 0 then Ack_cross { gtid = tx.gtid }
        else
          match !frags with
          | [ (s, tid) ] -> Ack_local { shard = s; tid }
          | [] -> Ack_read_only
          | _ -> assert false
      in
      Some (v, ack)
    | exception Cross_abort ->
      (* The body aborted before any global ID was drawn; every level
         rolled back on the way out. *)
      None

  (* Read-only snapshot on one shard.  Deliberately no quiesce handshake:
     a snapshot owns no stripes, keeps no undo list and draws no ID, so it
     cannot conflict with anything — including the cross-shard path, whose
     quiesce only exists to keep TM retries out of nested sub-transactions.
     The reader simply waits out any Owned stripe it encounters, so it is
     never blocked behind (and never blocks) a cross-shard quiesce of its
     home region.  In durable mode the snapshot pins at this shard's entry
     of the vector watermark (installed at [build]). *)
  let atomically_ro ?durable t ~thread ~shard f =
    if shard < 0 || shard >= t.nshards then
      invalid_arg "Shard.atomically_ro: bad shard index";
    Stats.incr t.stats "ro_txs";
    let tx =
      { sh = t; dtxs = Array.make t.nshards None; shards_mask = 1 lsl shard;
        written_mask = 0; gtid = 0 }
    in
    match
      Engine.atomically_ro ?durable t.engines.(shard) ~thread (fun dtx ->
          tx.dtxs.(shard) <- Some dtx;
          f tx)
    with
    | Some (v, epoch) -> Some (v, epoch)
    | None -> None
    | exception Cross_abort -> None

  let atomically t ~thread ~shards f =
    let shards = List.sort_uniq compare shards in
    List.iter
      (fun s -> if s < 0 || s >= t.nshards then invalid_arg "Shard.atomically: bad shard index")
      shards;
    match shards with
    | [] -> invalid_arg "Shard.atomically: empty shard list"
    | [ s ] ->
      Stats.incr t.stats "single_txs";
      run_single t ~thread s f
    | _ -> run_cross t ~thread shards f

  (* ------------------------------------------------------------------ *)
  (* Durability protocol                                                 *)
  (* ------------------------------------------------------------------ *)

  let global_frontier t =
    Frontier.advance t.gf;
    Frontier.frontier t.gf

  let durable_vector t =
    Frontier.advance t.gf;
    Array.map Engine.durable_id t.engines

  let effective_durable t s =
    Frontier.advance t.gf;
    Frontier.effective t.gf s

  let effective_vector t =
    Frontier.advance t.gf;
    Array.init t.nshards (Frontier.effective t.gf)

  let wait_durable t = function
    | Ack_read_only -> ()
    | Ack_local { shard; tid } ->
      Sched.wait_until ~on:t.durable_bell ~label:"shard durable" (fun () ->
          Frontier.effective t.gf shard >= tid);
      Frontier.advance t.gf
    | Ack_cross { gtid } ->
      Sched.wait_until ~on:t.durable_bell ~label:"shard cross durable" (fun () ->
          Frontier.pure_frontier t.gf >= gtid);
      Frontier.advance t.gf

  (* ------------------------------------------------------------------ *)
  (* Drain / stop                                                        *)
  (* ------------------------------------------------------------------ *)

  (* Mark every region draining before blocking on any single drain: a
     combined-mode persist daemon only flushes a partial trailing group
     once draining is set, and one region's replay gate can require exactly
     that trailing flush on a sibling. *)
  let drain t =
    Array.iter Engine.begin_drain t.engines;
    Array.iter Engine.drain t.engines;
    Frontier.advance t.gf

  let stop t =
    drain t;
    Array.iter Engine.stop t.engines

  (* ------------------------------------------------------------------ *)
  (* Recovery: prepare every region, vote, commit every region           *)
  (* ------------------------------------------------------------------ *)

  type recovery = {
    reports : Dudetm_core.Dudetm.recovery_report array;
    voted_cuts : int array;  (** candidate durable ID minus the vote's cut, per shard *)
    discarded_fragments : int;  (** fragments dropped for incomplete sibling sets *)
  }

  (* The cross-shard vote.  Starting from every region's candidate durable
     ID, repeatedly discard fragments whose sibling set is incomplete: a
     fragment (g, mask, tid) on x fails when some sibling y in mask has no
     scanned fragment of g inside its current cut AND y's checkpointed
     frontier is below g (a frontier at or above g proves y already
     replayed — and possibly recycled — its fragment, so absence from y's
     rings is not absence of durability).  Discarding shrinks a cut, which
     can invalidate later fragments on other regions, so iterate to the
     (monotonically decreasing, hence convergent) fixpoint. *)
  let vote ~nshards preps =
    let cuts = Array.map Engine.prepared_durable preps in
    let frontiers = Array.map Engine.prepared_frontier preps in
    let frags = Array.map Engine.prepared_fragments preps in
    let floors = Array.map Engine.prepared_checkpoint_upto preps in
    let discarded = ref 0 in
    let sibling_has s g =
      frontiers.(s) >= g
      || List.exists (fun (g', _, tid) -> g' = g && tid <= cuts.(s)) frags.(s)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for x = 0 to nshards - 1 do
        List.iter
          (fun (g, mask, tid) ->
            if tid <= cuts.(x) && frontiers.(x) < g then begin
              let complete =
                let ok = ref true in
                for y = 0 to nshards - 1 do
                  if y <> x && mask land (1 lsl y) <> 0 && not (sibling_has y g) then ok := false
                done;
                !ok
              in
              if not (complete) then begin
                (* The checkpoint floor bounds the cut from below: replayed
                   state cannot be un-replayed.  A fragment below the floor
                   with a missing sibling would mean the replay gate was
                   broken — surface it instead of silently accepting. *)
                if tid <= floors.(x) then
                  failwith
                    (Printf.sprintf
                       "Shard.attach: fragment gtid=%d already replayed on shard %d but its \
                        sibling set is incomplete (replay-gate violation)"
                       g x);
                cuts.(x) <- tid - 1;
                incr discarded;
                changed := true
              end
            end)
          frags.(x)
      done
    done;
    (cuts, !discarded)

  let attach ~nshards cfg nvms =
    check_nshards nshards;
    if Array.length nvms <> nshards then invalid_arg "Shard.attach: wrong device count";
    let preps = Array.map (Engine.attach_prepare cfg) nvms in
    let candidates = Array.map Engine.prepared_durable preps in
    let cuts, discarded = vote ~nshards preps in
    let pairs = Array.mapi (fun i p -> Engine.attach_commit ~durable_cut:cuts.(i) p) preps in
    let engines = Array.map fst pairs in
    let reports = Array.map snd pairs in
    let t = build cfg ~nshards engines in
    (* Everything that survived the vote is fully durable, so the frontier
       restarts above every global ID ever drawn; fresh draws continue
       after it. *)
    let maxg = ref 0 in
    Array.iter (fun p -> maxg := max !maxg (Engine.prepared_frontier p)) preps;
    Array.iter
      (fun fs -> List.iter (fun (g, _, _) -> maxg := max !maxg g) fs)
      (Array.map Engine.prepared_fragments preps);
    Frontier.restart t.gf !maxg;
    Sched.ring t.durable_bell;
    let voted_cuts = Array.mapi (fun i c -> candidates.(i) - c) cuts in
    (t, { reports; voted_cuts; discarded_fragments = discarded })
end
