type mode = Async | Sync | Inf

type fault =
  | No_fault
  | Early_durable_publish
  | Unfenced_reproduce
  | Skip_crc_verify
  | Skip_recovery_journal
  | Skip_fragment_gate
  | Skip_batch_seal
  | Skip_quorum_gate
  | Skip_handoff_seal
  | Skip_snapshot_validate
  | Skip_admission_gate

exception Invalid_config of string

let () =
  Printexc.register_printer (function
    | Invalid_config msg -> Some (Printf.sprintf "Invalid_config %S" msg)
    | _ -> None)

type t = {
  heap_size : int;
  root_size : int;
  nthreads : int;
  mode : mode;
  pmem : Dudetm_nvm.Pmem_config.t;
  shadow_mode : Dudetm_shadow.Shadow.mode;
  shadow_frames : int option;
  vlog_capacity : int;
  plog_size : int;
  meta_size : int;
  group_size : int;
  combine : bool;
  compress : bool;
  persist_threads : int;
  batch_min_entries : int;
  batch_max_entries : int;
  batch_deadline : int;
  reproduce_batch : int;
  checkpoint_records : int;
  drain_budget : int;
  daemon_fault_rate : float;
  daemon_backoff_base : int;
  daemon_backoff_cap : int;
  bp_hwm_fraction : float;
  bp_wait_budget : int;
  pmalloc_wait_budget : int;
  ack_timeout : int;
  seed : int;
  fault : fault;
}

let default =
  {
    heap_size = 16 * 1024 * 1024;
    root_size = 4096;
    nthreads = 4;
    mode = Async;
    pmem = Dudetm_nvm.Pmem_config.default;
    shadow_mode = Dudetm_shadow.Shadow.Software;
    shadow_frames = None;
    vlog_capacity = 1 lsl 17;
    plog_size = 1 lsl 21;
    meta_size = 1 lsl 17;
    group_size = 1;
    combine = false;
    compress = false;
    persist_threads = 1;
    batch_min_entries = 16;
    batch_max_entries = 128;
    batch_deadline = 4000;
    reproduce_batch = 64;
    checkpoint_records = 8;
    drain_budget = 200_000_000;
    daemon_fault_rate = 0.0;
    daemon_backoff_base = 200;
    daemon_backoff_cap = 100_000;
    bp_hwm_fraction = 0.75;
    bp_wait_budget = 2_000_000;
    pmalloc_wait_budget = 1_000_000;
    ack_timeout = 2_000_000;
    seed = 42;
    fault = No_fault;
  }

let crc_extent = 512

let badline_capacity = 64

let with_mode mode t = { t with mode }

let with_pmem pmem t = { t with pmem }

let plog_regions t = if t.combine then 1 else t.nthreads

let heap_base _ = 0

let meta_base t = t.heap_size

let line_align t n =
  let line = t.pmem.Dudetm_nvm.Pmem_config.line_size in
  (n + line - 1) / line * line

let crcdir_base t = t.heap_size + t.meta_size

let crcdir_size t = line_align t (t.heap_size / crc_extent * 8)

let badline_base t = crcdir_base t + crcdir_size t

let badline_size t = line_align t ((3 + badline_capacity) * 8)

let rjournal_base t = badline_base t + badline_size t

(* Two fixed-size intent slots (see Rjournal); each slot is padded to 128
   bytes so slot writes never share a cache line. *)
let rjournal_size t = line_align t 256

let hjournal_base t = rjournal_base t + rjournal_size t

(* Two double-slot records for the shard-migration coordinator (device 0
   of a sharded instance): the handoff record at +0 and the partition
   descriptor at +256.  Every device reserves the region so the layout is
   uniform; unsharded engines simply never touch it. *)
let hjournal_size t = line_align t 512

let plog_base t i = hjournal_base t + hjournal_size t + (i * t.plog_size)

let nvm_size t =
  (* Pad to a page: the paged shadow views the whole device and requires a
     page-aligned size (the CRC directory and bad-line table regions are
     only line-aligned). *)
  let page = 4096 in
  let n = line_align t (plog_base t (plog_regions t)) in
  (n + page - 1) / page * page

let validate t =
  let fail msg = raise (Invalid_config ("Config: " ^ msg)) in
  let fraction name f =
    if not (f >= 0.0 && f <= 1.0) then fail (name ^ " must be within [0, 1]")
  in
  if t.heap_size <= 0 || t.heap_size land 4095 <> 0 then fail "heap_size must be a positive multiple of 4096";
  if t.root_size < 8 || t.root_size > t.heap_size then fail "bad root_size";
  if t.nthreads < 1 then fail "nthreads < 1";
  if t.vlog_capacity < 16 then fail "vlog_capacity too small";
  if t.plog_size < 4096 then fail "plog_size too small";
  if t.meta_size < 4096 then fail "meta_size too small";
  if t.group_size < 1 then fail "group_size < 1";
  if t.persist_threads < 1 then fail "persist_threads < 1";
  if t.combine && t.persist_threads <> 1 then
    fail "cross-transaction combination requires a single persist thread";
  if (not t.combine) && t.compress then fail "compression requires combination";
  if t.batch_min_entries < 1 then fail "batch_min_entries < 1";
  if t.batch_max_entries < t.batch_min_entries then
    fail "batch_max_entries below batch_min_entries";
  if t.batch_deadline < 1 then fail "batch_deadline < 1";
  if t.fault = Skip_batch_seal && not t.combine then
    fail "Skip_batch_seal seeds a bug in the pipelined (combine) persist path";
  if t.reproduce_batch < 1 then fail "reproduce_batch < 1";
  if t.checkpoint_records < 1 then fail "checkpoint_records < 1";
  let line = t.pmem.Dudetm_nvm.Pmem_config.line_size in
  if crc_extent < line || crc_extent mod line <> 0 then
    fail "crc_extent must be a positive multiple of the NVM line size";
  if t.heap_size mod crc_extent <> 0 then fail "crc_extent must divide heap_size";
  if t.drain_budget < 1 then fail "drain_budget < 1";
  fraction "daemon_fault_rate" t.daemon_fault_rate;
  fraction "bp_hwm_fraction" t.bp_hwm_fraction;
  if t.daemon_backoff_base < 1 then fail "daemon_backoff_base < 1";
  if t.daemon_backoff_cap < t.daemon_backoff_base then
    fail "daemon_backoff_cap below daemon_backoff_base";
  if t.bp_wait_budget < 0 then fail "bp_wait_budget < 0";
  if t.pmalloc_wait_budget < 0 then fail "pmalloc_wait_budget < 0";
  if t.ack_timeout < 1 then fail "ack_timeout < 1";
  if nvm_size t land 4095 <> 0 then fail "nvm_size not page-aligned";
  (match t.shadow_frames with
  | Some f when f < 2 -> fail "shadow_frames < 2"
  | _ -> ());
  if t.mode = Sync && t.combine then fail "Sync mode flushes per transaction; combination needs Async"
