module Nvm = Dudetm_nvm.Nvm
module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Lock_table = Dudetm_tm.Lock_table
module Alloc = Dudetm_core.Alloc
module Trace = Dudetm_trace.Trace

type config = {
  heap_size : int;
  root_size : int;
  nthreads : int;
  pmem : Dudetm_nvm.Pmem_config.t;
  log_size : int;
  tx_overhead : int;
  undo_entry_cost : int;
  alloc_cost : int;
  read_cost : int;
  write_cost : int;
  seed : int;
}

let default_config =
  {
    heap_size = 16 * 1024 * 1024;
    root_size = 4096;
    nthreads = 4;
    pmem = Dudetm_nvm.Pmem_config.default;
    log_size = 1 lsl 18;
    (* ~1.14M empty tx/s/thread at 3.4 GHz is ~2980 cycles per empty
       transaction; most of it is metadata allocation. *)
    tx_overhead = 2600;
    (* TX_ADD-style snapshotting work per undo entry. *)
    undo_entry_cost = 150;
    (* pmemobj-style transactional allocation measures in microseconds:
       metadata updates plus their flushes. *)
    alloc_cost = 10000;
    read_cost = 4;
    write_cost = 8;
    seed = 42;
  }

type t = {
  cfg : config;
  nvm : Nvm.t;
  locks : Lock_table.t;
  mutable clock : int;
  mutable next_uid : int;
  allocator : Alloc.t;
  stats : Stats.t;
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
    stats = Stats.create ();
  }

(* Blocking lock acquisition in sorted stripe order (deadlock-free).
   Returns the saved pre-acquisition versions for release. *)
let acquire_locks t ~uid stripes =
  List.map
    (fun stripe ->
      Sched.wait_until ~label:"nvml lock" (fun () ->
          not (Lock_table.owned (Lock_table.word t.locks stripe)));
      match Lock_table.acquire t.locks ~stripe ~uid with
      | Some prev -> (stripe, prev)
      | None -> assert false)
    stripes

let release_locks t ~version held =
  List.iter
    (fun (stripe, prev) ->
      let v = match version with Some v -> v | None -> prev in
      Lock_table.release_to t.locks ~stripe ~version:v)
    held

let atomically_impl t ~thread ~wset f =
  Trace.span ~cat:"perform" "tx" @@ fun () ->
  Sched.advance (t.cfg.tx_overhead + (t.cfg.undo_entry_cost * List.length wset));
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  let wset = List.sort_uniq compare wset in
  let stripes = List.sort_uniq compare (List.map (Lock_table.stripe_of_addr t.locks) wset) in
  let held = acquire_locks t ~uid stripes in
  (* Undo-log all old values at once: one persist ordering (the static-
     transaction trick that makes NVML competitive, Section 2.2). *)
  let n = List.length wset in
  let record = Bytes.create (16 + (16 * n)) in
  Bytes.set_int64_le record 0 (Int64.of_int uid);
  Bytes.set_int64_le record 8 (Int64.of_int n);
  List.iteri
    (fun i addr ->
      Bytes.set_int64_le record (16 + (16 * i)) (Int64.of_int addr);
      Bytes.set_int64_le record (24 + (16 * i)) (Nvm.load_u64 t.nvm addr))
    wset;
  if Bytes.length record > t.cfg.log_size then invalid_arg "Nvml: write set exceeds log region";
  let lb = log_base t thread in
  Trace.span_begin ~cat:"persist" "undo_log";
  Nvm.store_bytes t.nvm lb record;
  Nvm.persist t.nvm ~off:lb ~len:(Bytes.length record);
  Trace.span_end ~cat:"persist" "undo_log";
  let in_set = Hashtbl.create (2 * max 1 n) in
  List.iter (fun a -> Hashtbl.replace in_set a ()) wset;
  let written = ref [] in
  let rollback () =
    List.iteri
      (fun i addr -> Nvm.store_u64 t.nvm addr (Bytes.get_int64_le record (24 + (16 * i))))
      wset;
    Nvm.persist_ranges t.nvm (List.map (fun a -> (a, 8)) wset)
  in
  let ptx =
    {
      Ptm_intf.read =
        (fun addr ->
          Sched.advance t.cfg.read_cost;
          Nvm.load_u64 t.nvm addr);
      write =
        (fun addr value ->
          Sched.advance t.cfg.write_cost;
          if not (Hashtbl.mem in_set addr) then
            invalid_arg "Nvml: write outside the declared write set";
          Nvm.store_u64 t.nvm addr value;
          written := (addr, 8) :: !written);
      abort = (fun () -> raise Ptm_intf.Aborted);
      pmalloc =
        (fun size ->
          (* NVML's allocator is persistent and slow; the paper moves
             allocations out of the measured paths where it can, but
             TPC-C-style transactions must allocate rows. *)
          Sched.advance t.cfg.alloc_cost;
          match Alloc.alloc t.allocator size with
          | None -> failwith "Nvml: out of persistent memory"
          | Some off -> off);
      pfree =
        (fun ~off ~len ->
          Sched.advance (t.cfg.alloc_cost / 2);
          Alloc.free t.allocator ~off ~len);
    }
  in
  match f ptx with
  | result ->
    (* Commit: persist the in-place updates, then retire the undo log. *)
    Trace.span_begin ~cat:"persist" "commit_persist";
    Nvm.persist_ranges t.nvm !written;
    Nvm.store_u64 t.nvm lb 0L;
    Nvm.persist t.nvm ~off:lb ~len:8;
    Trace.span_end ~cat:"persist" "commit_persist";
    let tid = t.clock + 1 in
    t.clock <- tid;
    release_locks t ~version:(Some tid) held;
    Stats.incr t.stats "commits";
    Some (result, tid)
  | exception Ptm_intf.Aborted ->
    rollback ();
    Nvm.store_u64 t.nvm lb 0L;
    Nvm.persist t.nvm ~off:lb ~len:8;
    release_locks t ~version:None held;
    Stats.incr t.stats "user_aborts";
    None

let ptm_of ?(name = "NVML") t =
  let atomically : 'a. thread:int -> ?wset:int list -> (Ptm_intf.tx -> 'a) -> ('a * int) option
      =
    fun ~thread ?(wset = []) f -> atomically_impl t ~thread ~wset f
  in
  (* NVML's static transactions have no read-only mode; an empty declared
     write set makes the ordinary path lock nothing, but it still pays
     the undo-log lifecycle. *)
  let atomically_ro : 'a. durable:bool -> thread:int -> (Ptm_intf.tx -> 'a) -> ('a * int) option
      =
    fun ~durable:_ ~thread f -> atomically_impl t ~thread ~wset:[] f
  in
  {
    Ptm_intf.name;
    requires_static = true;
    nthreads = t.cfg.nthreads;
    root_base = 0;
    atomically;
    atomically_ro;
    peek = Nvm.load_u64 t.nvm;
    durable_id = (fun () -> t.clock);
    last_tid = (fun () -> t.clock);
    start = (fun () -> ());
    drain = (fun () -> ());
    stop = (fun () -> ());
    nvm = Some t.nvm;
    counters = (fun () -> Stats.to_list t.stats);
    prealloc =
      Some
        (fun size ->
          Sched.advance t.cfg.alloc_cost;
          match Alloc.alloc t.allocator size with
          | None -> failwith "Nvml: out of persistent memory"
          | Some off -> off);
  }

let ptm ?name cfg = ptm_of ?name (create cfg)

let nvm t = t.nvm

(* Crash recovery: any thread whose undo-log header is non-zero crashed
   mid-transaction; restore the logged old values (undo logging rolls
   back), persist, and retire the log.  Committed transactions already
   persisted their data before retiring their logs, so they need nothing. *)
let recover t =
  let rolled_back = ref 0 in
  for thread = 0 to t.cfg.nthreads - 1 do
    let lb = log_base t thread in
    if Nvm.load_u64 t.nvm lb <> 0L then begin
      let n = Int64.to_int (Nvm.load_u64 t.nvm (lb + 8)) in
      if n >= 0 && 16 + (16 * n) <= t.cfg.log_size then begin
        let ranges = ref [] in
        for i = 0 to n - 1 do
          let addr = Int64.to_int (Nvm.load_u64 t.nvm (lb + 16 + (16 * i))) in
          let old_value = Nvm.load_u64 t.nvm (lb + 24 + (16 * i)) in
          Nvm.store_u64 t.nvm addr old_value;
          ranges := (addr, 8) :: !ranges
        done;
        Nvm.persist_ranges t.nvm !ranges;
        incr rolled_back
      end;
      Nvm.store_u64 t.nvm lb 0L;
      Nvm.persist t.nvm ~off:lb ~len:8
    end
  done;
  !rolled_back
