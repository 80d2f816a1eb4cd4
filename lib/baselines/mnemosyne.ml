module Nvm = Dudetm_nvm.Nvm
module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Lock_table = Dudetm_tm.Lock_table
module Tm_intf = Dudetm_tm.Tm_intf
module Alloc = Dudetm_core.Alloc
module Trace = Dudetm_trace.Trace

type config = {
  heap_size : int;
  root_size : int;
  nthreads : int;
  pmem : Dudetm_nvm.Pmem_config.t;
  log_size : int;
  tm_costs : Tm_intf.costs;
  instrument_cost : int;
  redirect_cost : int;
  clflush_penalty : int;
  seed : int;
}

let default_config =
  {
    heap_size = 16 * 1024 * 1024;
    root_size = 4096;
    nthreads = 4;
    pmem = Dudetm_nvm.Pmem_config.default;
    log_size = 1 lsl 20;
    tm_costs = Tm_intf.default_costs;
    instrument_cost = 140;
    redirect_cost = 40;
    clflush_penalty = 180;
    seed = 42;
  }

exception Retry

type t = {
  cfg : config;
  nvm : Nvm.t;
  locks : Lock_table.t;
  mutable clock : int;
  mutable next_uid : int;
  allocator : Alloc.t;
  log_cursor : int array;  (* bytes used in each thread's log region *)
  dirty_data : (int, unit) Hashtbl.t;  (* heap words updated since last truncation *)
  (* The version clock advances when a commit {e starts} (so concurrent
     committers draw distinct versions), but a transaction is only durable
     once its record's commit mark is sealed.  [durable] is the largest
     version with every version at or below it sealed — reporting the raw
     clock instead loses acknowledged transactions when a crash lands
     between the clock bump and the seal (found by the systematic crash
     checker, lib/check). *)
  mutable durable : int;
  sealed : (int, unit) Hashtbl.t;  (* versions sealed but > durable *)
  stats : Stats.t;
  rng : Rng.t;
}

let note_sealed t wv =
  Hashtbl.replace t.sealed wv ();
  while Hashtbl.mem t.sealed (t.durable + 1) do
    Hashtbl.remove t.sealed (t.durable + 1);
    t.durable <- t.durable + 1
  done

type mtx = {
  m : t;
  thread : int;
  uid : int;
  mutable rv : int;
  mutable reads : (int * int) list;
  wbuf : (int, int64) Hashtbl.t;
  mutable worder : int list;  (* newest first *)
  mutable allocs : (int * int) list;
}

let log_base t thread = t.cfg.heap_size + (thread * t.cfg.log_size)

let create cfg =
  let size = cfg.heap_size + (cfg.nthreads * cfg.log_size) in
  let line = cfg.pmem.Dudetm_nvm.Pmem_config.line_size in
  let size = (size + line - 1) / line * line in
  {
    cfg;
    nvm = Nvm.create cfg.pmem ~size;
    locks = Lock_table.create ();
    clock = 0;
    next_uid = 1;
    allocator = Alloc.create ~base:cfg.root_size ~size:(cfg.heap_size - cfg.root_size);
    log_cursor = Array.make cfg.nthreads 0;
    dirty_data = Hashtbl.create 4096;
    durable = 0;
    sealed = Hashtbl.create 64;
    stats = Stats.create ();
    rng = Rng.create cfg.seed;
  }

let validate tx =
  List.for_all
    (fun (stripe, v) ->
      let w = Lock_table.word tx.m.locks stripe in
      if Lock_table.owned w then Lock_table.value w = tx.uid else Lock_table.value w = v)
    tx.reads

let conflict tx =
  Stats.incr tx.m.stats "aborts";
  Sched.advance tx.m.cfg.tm_costs.Tm_intf.abort_cost;
  raise Retry

let mread tx addr =
  Sched.advance (tx.m.cfg.tm_costs.Tm_intf.read_cost + tx.m.cfg.instrument_cost);
  Stats.incr tx.m.stats "reads";
  (* Update redirection: every read first probes the write set. *)
  Sched.advance tx.m.cfg.redirect_cost;
  match Hashtbl.find_opt tx.wbuf addr with
  | Some v -> v
  | None -> (
    let stripe = Lock_table.stripe_of_addr tx.m.locks addr in
    let w = Lock_table.word tx.m.locks stripe in
    if Lock_table.owned w then conflict tx
    else
      let v = Lock_table.value w in
      let value = Nvm.load_u64 tx.m.nvm addr in
      if v > tx.rv then
        if validate tx then tx.rv <- tx.m.clock else conflict tx;
      tx.reads <- (stripe, v) :: tx.reads;
      value)

let mwrite tx addr value =
  Sched.advance (tx.m.cfg.tm_costs.Tm_intf.write_cost + tx.m.cfg.instrument_cost);
  Stats.incr tx.m.stats "writes";
  if not (Hashtbl.mem tx.wbuf addr) then tx.worder <- addr :: tx.worder;
  Hashtbl.replace tx.wbuf addr value

(* Redo-log record: 16 bytes per (addr, value) pair, plus a 16-byte
   header/commit mark.  When the region fills up we must make the in-place
   data durable and truncate. *)
let truncate_log t thread =
  let ranges = Hashtbl.fold (fun addr () acc -> (addr, 8) :: acc) t.dirty_data [] in
  Nvm.persist_ranges t.nvm ranges;
  Hashtbl.reset t.dirty_data;
  (* Make the recycled records unreachable before reusing the region: a
     zeroed first header stops the recovery scan. *)
  Nvm.store_u64 t.nvm (log_base t thread) 0L;
  Nvm.persist t.nvm ~off:(log_base t thread) ~len:8;
  t.log_cursor.(thread) <- 0;
  Stats.incr t.stats "log_truncations";
  Trace.instant ~cat:"persist" "truncate" thread

let commit tx =
  let t = tx.m in
  let n = List.length tx.worder in
  Sched.advance (t.cfg.tm_costs.Tm_intf.commit_base + (t.cfg.tm_costs.Tm_intf.commit_per_write * n));
  if n = 0 then begin
    Stats.incr t.stats "read_only_commits";
    0
  end
  else begin
    (* Commit-time locking. *)
    let stripes =
      List.sort_uniq compare (List.map (Lock_table.stripe_of_addr t.locks) tx.worder)
    in
    let acquired = ref [] in
    let ok =
      List.for_all
        (fun stripe ->
          match Lock_table.acquire t.locks ~stripe ~uid:tx.uid with
          | Some prev ->
            acquired := (stripe, prev) :: !acquired;
            true
          | None -> false)
        stripes
    in
    let release_all version_of =
      List.iter
        (fun (stripe, prev) ->
          Lock_table.release_to t.locks ~stripe ~version:(version_of prev))
        !acquired
    in
    (* Commit-time validation must see through our own locks: acquisition
       replaced each stripe's version word with an ownership mark, so a
       read of a now-owned stripe is checked against the version saved at
       acquisition.  Trusting ownership alone would let a transaction that
       read a stripe, lost a race to a conflicting committer, then locked
       the stripe itself validate a stale read — a lost update (found by
       the schedule explorer, lib/check). *)
    let validate_locked () =
      List.for_all
        (fun (stripe, v) ->
          match List.assoc_opt stripe !acquired with
          | Some prev -> prev = v
          | None -> (
            let w = Lock_table.word t.locks stripe in
            if Lock_table.owned w then Lock_table.value w = tx.uid
            else Lock_table.value w = v))
        tx.reads
    in
    if (not ok) || not (validate_locked ()) then begin
      release_all (fun prev -> prev);
      conflict tx
    end;
    let wv = t.clock + 1 in
    t.clock <- wv;
    (* Persist the redo log synchronously: the per-transaction stall DudeTM
       decouples away.  The span makes that stall directly comparable to
       DudeTM's off-critical-path persist.flush. *)
    Trace.span_begin ~cat:"persist" "log_persist";
    let record_bytes = 16 + (16 * n) in
    if record_bytes + 8 > t.cfg.log_size then
      invalid_arg "Mnemosyne: transaction log too large";
    if t.log_cursor.(tx.thread) + record_bytes + 8 > t.cfg.log_size then
      truncate_log t tx.thread;
    (* Record plus a zeroed tombstone header: the tombstone stops a
       recovery scan before it can reach stale records from a previous lap
       of the region. *)
    let buf = Bytes.create (record_bytes + 8) in
    (* Unsealed header: the version shifted left, commit bit clear — the
       same encoding the seal completes by setting bit 0.  Writing the raw
       version here would leave odd versions looking sealed, so a crash
       mid-record-persist could replay a torn transaction. *)
    Bytes.set_int64_le buf 0 (Int64.of_int (wv lsl 1));
    Bytes.set_int64_le buf 8 (Int64.of_int n);
    List.iteri
      (fun i addr ->
        Bytes.set_int64_le buf (16 + (16 * i)) (Int64.of_int addr);
        Bytes.set_int64_le buf (24 + (16 * i)) (Hashtbl.find tx.wbuf addr))
      tx.worder;
    Bytes.set_int64_le buf record_bytes 0L;
    let off = log_base t tx.thread + t.log_cursor.(tx.thread) in
    Nvm.store_bytes t.nvm off buf;
    Nvm.persist t.nvm ~off ~len:(record_bytes + 8);
    (* Commit mark: Mnemosyne seals the record with a second ordered
       write, so a torn record is never replayed. *)
    Nvm.store_u64 t.nvm off (Int64.of_int ((wv lsl 1) lor 1));
    Nvm.persist t.nvm ~off ~len:8;
    note_sealed t wv;
    t.log_cursor.(tx.thread) <- t.log_cursor.(tx.thread) + record_bytes;
    (* CLFLUSH invalidated the freshly written log lines: charge the
       refill penalty. *)
    Sched.advance (t.cfg.clflush_penalty * ((record_bytes + 63) / 64));
    Trace.span_end ~cat:"persist" "log_persist";
    (* Apply in place; these stores may linger in cache (the log covers
       them). *)
    List.iter
      (fun addr ->
        Nvm.store_u64 t.nvm addr (Hashtbl.find tx.wbuf addr);
        Hashtbl.replace t.dirty_data addr ())
      tx.worder;
    release_all (fun _ -> wv);
    Stats.incr t.stats "commits";
    wv
  end

let atomically_impl t ~thread f =
  Trace.span ~cat:"perform" "tx" @@ fun () ->
  let rec attempt round =
    Sched.advance t.cfg.tm_costs.Tm_intf.begin_cost;
    let uid = t.next_uid in
    t.next_uid <- uid + 1;
    let tx =
      {
        m = t;
        thread;
        uid;
        rv = t.clock;
        reads = [];
        wbuf = Hashtbl.create 16;
        worder = [];
        allocs = [];
      }
    in
    let refund () =
      List.iter (fun (off, len) -> Alloc.free t.allocator ~off ~len) tx.allocs
    in
    let ptx =
      {
        Ptm_intf.read = mread tx;
        write = mwrite tx;
        abort = (fun () -> raise Ptm_intf.Aborted);
        pmalloc =
          (fun n ->
            Sched.advance 260;
            match Alloc.alloc t.allocator n with
            | None -> failwith "Mnemosyne: out of persistent memory"
            | Some off ->
              tx.allocs <- (off, n) :: tx.allocs;
              mwrite tx off 0L;
              off);
        pfree = (fun ~off ~len -> Alloc.free t.allocator ~off ~len);
      }
    in
    match
      let result = f ptx in
      let tid = commit tx in
      (result, tid)
    with
    | pair -> Some pair
    | exception Retry ->
      refund ();
      Sched.advance (64 + Rng.int t.rng (min 4096 (64 lsl min round 10)));
      attempt (round + 1)
    | exception Ptm_intf.Aborted ->
      refund ();
      None
  in
  attempt 0

let ptm_of ?(name = "Mnemosyne") t =
  let cfg = t.cfg in
  ignore cfg;
  let atomically : 'a. thread:int -> ?wset:int list -> (Ptm_intf.tx -> 'a) -> ('a * int) option
      =
    fun ~thread ?wset:_ f -> atomically_impl t ~thread f
  in
  (* Mnemosyne has no read-only mode: a read-only transaction still runs
     the full commit (torn-bit log seal included), so snapshot reads pay
     the ordinary path. *)
  let atomically_ro : 'a. durable:bool -> thread:int -> (Ptm_intf.tx -> 'a) -> ('a * int) option
      =
    fun ~durable:_ ~thread f -> atomically_impl t ~thread f
  in
  {
    Ptm_intf.name;
    requires_static = false;
    nthreads = t.cfg.nthreads;
    root_base = 0;
    atomically;
    atomically_ro;
    peek = Nvm.load_u64 t.nvm;
    durable_id = (fun () -> t.durable);
    last_tid = (fun () -> t.clock);
    start = (fun () -> ());
    drain = (fun () -> ());
    stop = (fun () -> ());
    nvm = Some t.nvm;
    counters = (fun () -> Stats.to_list t.stats);
    prealloc = None;
  }

let ptm ?name cfg = ptm_of ?name (create cfg)

let nvm t = t.nvm

(* Crash recovery: replay every sealed redo record, in commit order across
   all per-thread logs, onto the home locations; then persist and truncate.
   A record is sealed once its header word carries the commit bit; an
   unsealed tail record is ignored (its transaction never committed). *)
let recover t =
  let records = ref [] in
  for thread = 0 to t.cfg.nthreads - 1 do
    let base = log_base t thread in
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      if !pos + 16 > t.cfg.log_size then continue := false
      else begin
        let h = Int64.to_int (Nvm.load_u64 t.nvm (base + !pos)) in
        if h land 1 = 0 then continue := false
        else begin
          let wv = h lsr 1 in
          let n = Int64.to_int (Nvm.load_u64 t.nvm (base + !pos + 8)) in
          if n < 0 || !pos + 16 + (16 * n) > t.cfg.log_size then continue := false
          else begin
            let writes =
              List.init n (fun i ->
                  ( Int64.to_int (Nvm.load_u64 t.nvm (base + !pos + 16 + (16 * i))),
                    Nvm.load_u64 t.nvm (base + !pos + 24 + (16 * i)) ))
            in
            records := (wv, writes) :: !records;
            pos := !pos + 16 + (16 * n)
          end
        end
      end
    done
  done;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !records in
  let ranges = ref [] in
  List.iter
    (fun (_, writes) ->
      List.iter
        (fun (addr, value) ->
          Nvm.store_u64 t.nvm addr value;
          ranges := (addr, 8) :: !ranges)
        writes)
    sorted;
  Nvm.persist_ranges t.nvm !ranges;
  Hashtbl.reset t.dirty_data;
  for thread = 0 to t.cfg.nthreads - 1 do
    Nvm.store_u64 t.nvm (log_base t thread) 0L;
    Nvm.persist t.nvm ~off:(log_base t thread) ~len:8;
    t.log_cursor.(thread) <- 0
  done;
  Hashtbl.reset t.sealed;
  (match sorted with
  | [] -> ()
  | l ->
    let top = fst (List.hd (List.rev l)) in
    t.clock <- max t.clock top;
    t.durable <- max t.durable top);
  List.length sorted
