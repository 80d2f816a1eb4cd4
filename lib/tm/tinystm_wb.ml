module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Trace = Dudetm_trace.Trace

exception Retry

type t = {
  store : Tm_intf.store;
  locks : Lock_table.t;
  costs : Tm_intf.costs;
  redirect_cost : int;
  mutable clock : int;
  mutable next_uid : int;
  stats : Stats.t;
  reads_c : Stats.cell;  (* "reads" and "writes", resolved once *)
  writes_c : Stats.cell;
  rng : Rng.t;
}

type tx = {
  tm : t;
  uid : int;
  mutable rv : int;
  mutable reads : (int * int) list;  (* (stripe, observed version) *)
  wbuf : (int, int64) Hashtbl.t;  (* addr -> buffered value *)
  mutable worder : int list;  (* write addresses, newest first *)
  mutable active : bool;
}

let create_wb ?(costs = Tm_intf.default_costs) ?(seed = 42) ?(redirect_cost = 18) store =
  let stats = Stats.create () in
  {
    store;
    locks = Lock_table.create ();
    costs;
    redirect_cost;
    clock = 0;
    next_uid = 1;
    stats;
    reads_c = Stats.counter stats "reads";
    writes_c = Stats.counter stats "writes";
    rng = Rng.create seed;
  }

let create ?costs ?seed store = create_wb ?costs ?seed store

let begin_tx tm =
  Sched.advance tm.costs.Tm_intf.begin_cost;
  let uid = tm.next_uid in
  tm.next_uid <- uid + 1;
  { tm; uid; rv = tm.clock; reads = []; wbuf = Hashtbl.create 8; worder = []; active = true }

let conflict tx =
  Stats.incr tx.tm.stats "aborts";
  tx.active <- false;
  Sched.advance tx.tm.costs.Tm_intf.abort_cost;
  raise Retry

(* Validation before locks are held: every read-set stripe must still carry
   the observed version (owned stripes appear only inside commit, which
   validates separately). *)
let validate tx =
  List.for_all
    (fun (stripe, v) ->
      let w = Lock_table.word tx.tm.locks stripe in
      if Lock_table.owned w then Lock_table.value w = tx.uid else Lock_table.value w = v)
    tx.reads

let read tx addr =
  if not tx.active then invalid_arg "Tinystm_wb.read: transaction not active";
  Sched.advance (tx.tm.costs.Tm_intf.read_cost + tx.tm.redirect_cost);
  Stats.bump tx.tm.reads_c;
  (* Update redirection: write-back access must probe the write set on
     every read. *)
  match Hashtbl.find_opt tx.wbuf addr with
  | Some v -> v
  | None -> (
    let stripe = Lock_table.stripe_of_addr tx.tm.locks addr in
    let w = Lock_table.word tx.tm.locks stripe in
    if Lock_table.owned w then conflict tx
    else
      let v = Lock_table.value w in
      let value = tx.tm.store.Tm_intf.load addr in
      if v > tx.rv then
        if validate tx then tx.rv <- tx.tm.clock else conflict tx;
      tx.reads <- (stripe, v) :: tx.reads;
      value)

let write tx addr value =
  if not tx.active then invalid_arg "Tinystm_wb.write: transaction not active";
  Sched.advance tx.tm.costs.Tm_intf.write_cost;
  Stats.bump tx.tm.writes_c;
  if not (Hashtbl.mem tx.wbuf addr) then tx.worder <- addr :: tx.worder;
  Hashtbl.replace tx.wbuf addr value

let user_abort tx =
  (* Nothing to undo: the store was never touched. *)
  tx.active <- false;
  raise Tm_intf.User_abort

let commit tx =
  if not tx.active then invalid_arg "Tinystm_wb.commit: transaction not active";
  let tm = tx.tm in
  let n = List.length tx.worder in
  Sched.advance (tm.costs.Tm_intf.commit_base + (tm.costs.Tm_intf.commit_per_write * n));
  if n = 0 then begin
    Stats.incr tm.stats "read_only_commits";
    tx.active <- false;
    0
  end
  else begin
    (* Commit-time locking over the write set, in one atomic step (no
       yield points below), so transaction IDs stay contiguous. *)
    let stripes =
      List.sort_uniq compare (List.map (Lock_table.stripe_of_addr tm.locks) tx.worder)
    in
    let acquired = ref [] in
    let ok =
      List.for_all
        (fun stripe ->
          match Lock_table.acquire tm.locks ~stripe ~uid:tx.uid with
          | Some prev ->
            acquired := (stripe, prev) :: !acquired;
            true
          | None -> false)
        stripes
    in
    (* Validate against the pre-acquisition versions: a stripe we now own
       may have been committed by a peer after we read it. *)
    let valid =
      ok
      && List.for_all
           (fun (stripe, v) ->
             match List.assoc_opt stripe !acquired with
             | Some prev -> prev = v
             | None -> (
               let w = Lock_table.word tm.locks stripe in
               (not (Lock_table.owned w)) && Lock_table.value w = v))
           tx.reads
    in
    if not valid then begin
      List.iter
        (fun (stripe, prev) -> Lock_table.release_to tm.locks ~stripe ~version:prev)
        !acquired;
      conflict tx
    end;
    List.iter
      (fun addr -> tm.store.Tm_intf.store addr (Hashtbl.find tx.wbuf addr))
      (List.rev tx.worder);
    let wv = tm.clock + 1 in
    tm.clock <- wv;
    List.iter
      (fun (stripe, _) -> Lock_table.release_to tm.locks ~stripe ~version:wv)
      !acquired;
    Stats.incr tm.stats "commits";
    tx.active <- false;
    wv
  end

let run ?(on_retry = fun () -> ()) tm f =
  let rec attempt round =
    Trace.span_begin ~cat:"tm" "attempt";
    let tx = begin_tx tm in
    match
      let result = f tx in
      let tid = commit tx in
      (result, tid)
    with
    | pair ->
      Trace.span_end ~cat:"tm" "attempt";
      Some pair
    | exception Retry ->
      on_retry ();
      Trace.span_end ~cat:"tm" "attempt";
      let cap = min 4096 (64 lsl min round 10) in
      let pause = 64 + Rng.int tm.rng cap in
      Stats.incr tm.stats "backoffs";
      Stats.add tm.stats "backoff_cycles" pause;
      Trace.sample ~cat:"tm" "backoff" pause;
      Trace.instant ~cat:"tm" "backoff" pause;
      Sched.advance pause;
      attempt (round + 1)
    | exception Tm_intf.User_abort ->
      on_retry ();
      Trace.span_end ~cat:"tm" "attempt";
      None
    | exception e ->
      tx.active <- false;
      on_retry ();
      Trace.span_end ~cat:"tm" "attempt";
      raise e
  in
  attempt 0

let last_tid tm = tm.clock

let stats tm = tm.stats

(* --- Read-only snapshot fast path (lib/tm/snapshot.ml) ---

   Write-back commit still publishes through the same versioned lock
   table and clock, so the snapshot reader drops in unchanged: an owned
   stripe means a commit is mid-publication and the reader waits it out. *)

type ro = Snapshot.ro

let snapshot_handle tm =
  {
    Snapshot.h_load = tm.store.Tm_intf.load;
    h_locks = tm.locks;
    h_clock = (fun () -> tm.clock);
    h_costs = tm.costs;
    h_stats = tm.stats;
    h_rng = tm.rng;
  }

let run_ro ?pin ?pin_bell ?validate_extension ?on_retry tm f =
  Snapshot.run ?pin ?pin_bell ?validate_extension ?on_retry (snapshot_handle tm) f

let ro_read = Snapshot.read

let ro_epoch = Snapshot.epoch

let ro_abort = Snapshot.abort
