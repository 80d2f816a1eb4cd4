module Rng = Dudetm_sim.Rng
module Sched = Dudetm_sim.Sched
module Resource = Dudetm_sim.Resource
module Trace = Dudetm_trace.Trace

exception Media_error of int

type fault =
  | Bit_rot of { off : int; bit : int }
  | Stuck_line of { line : int }
  | Poison of { line : int }

type decay = {
  decay_rate : float;  (* expected corrupted lines per epoch / total lines *)
  decay_epoch : int;  (* simulated cycles per decay epoch *)
  decay_rng : Rng.t;
}

(* Dirty state is tracked per cache line (the granularity of eviction and
   crash survival), but each line also remembers how many payload bytes
   were actually stored into it since its last flush.  Persist-cost
   accounting uses those byte counts — the paper's emulation charges
   [total write size / bandwidth], not whole-line traffic. *)
type t = {
  cfg : Pmem_config.t;
  label : string;  (* trace device identity; shards label theirs "shard<i>" *)
  latest : Mem.t;
  persisted : Mem.t;
  dirty : (int, int ref) Hashtbl.t;  (* line number -> dirty payload bytes *)
  channel : Resource.t;
  charge_time : bool;
  mutable write_bytes : int;
  mutable persist_ops : int;
  (* Fired at every persist boundary: once when an ordering is issued and
     once after each dirty line reaches the persisted image.  The systematic
     crash checker raises from here to cut power at an exact boundary. *)
  mutable persist_hook : (unit -> unit) option;
  (* Media-fault state.  [poisoned] lines raise {!Media_error} on any read
     that reaches the media (loads of non-dirty lines, persisted reads);
     [stuck] lines silently ignore flushes, keeping their last persisted
     content.  Both survive crashes: they are properties of the media. *)
  poisoned : (int, unit) Hashtbl.t;
  stuck : (int, unit) Hashtbl.t;
  mutable faults_injected : int;
  mutable faults_detected : int;
  mutable faults_repaired : int;
  mutable decay : decay option;
  mutable decay_last_epoch : int;
  mutable last_crash_survivors : int list;
}

let create ?(charge_time = true) ?(label = "nvm") cfg ~size =
  if size mod cfg.Pmem_config.line_size <> 0 then
    invalid_arg "Nvm.create: size must be a multiple of the line size";
  {
    cfg;
    label;
    latest = Mem.create size;
    persisted = Mem.create size;
    dirty = Hashtbl.create 4096;
    channel = Resource.create_gbps cfg.Pmem_config.bandwidth_gbps;
    charge_time;
    write_bytes = 0;
    persist_ops = 0;
    persist_hook = None;
    poisoned = Hashtbl.create 8;
    stuck = Hashtbl.create 8;
    faults_injected = 0;
    faults_detected = 0;
    faults_repaired = 0;
    decay = None;
    decay_last_epoch = 0;
    last_crash_survivors = [];
  }

let set_persist_hook t hook = t.persist_hook <- hook

let fire_hook t = match t.persist_hook with Some f -> f () | None -> ()

let size t = Mem.size t.latest

let label t = t.label

let config t = t.cfg

let line t addr = addr / t.cfg.Pmem_config.line_size

let line_size t = t.cfg.Pmem_config.line_size

(* ------------------------------------------------------------------ *)
(* Media faults                                                        *)
(* ------------------------------------------------------------------ *)

let check_poison_media t addr len =
  if Hashtbl.length t.poisoned > 0 && len > 0 then begin
    let first = line t addr and last = line t (addr + len - 1) in
    for l = first to last do
      if Hashtbl.mem t.poisoned l then
        raise (Media_error (l * t.cfg.Pmem_config.line_size))
    done
  end

(* A load is served from the cache when the line is dirty; only clean lines
   re-read the media and can observe poison. *)
let check_poison_load t addr len =
  if Hashtbl.length t.poisoned > 0 && len > 0 then begin
    let first = line t addr and last = line t (addr + len - 1) in
    for l = first to last do
      if Hashtbl.mem t.poisoned l && not (Hashtbl.mem t.dirty l) then
        raise (Media_error (l * t.cfg.Pmem_config.line_size))
    done
  end

let flip_persisted_bit t ~off ~bit =
  let b = Mem.get_u8 t.persisted off in
  let b' = b lxor (1 lsl (bit land 7)) in
  Mem.set_u8 t.persisted off b';
  (* A clean line's cached copy mirrors the media, so the corruption is
     immediately visible to loads too. *)
  if not (Hashtbl.mem t.dirty (line t off)) then Mem.set_u8 t.latest off b'

let inject_fault t fault =
  (match fault with
  | Bit_rot { off; bit } ->
    if off < 0 || off >= size t then invalid_arg "Nvm.inject_fault: offset out of range";
    flip_persisted_bit t ~off ~bit
  | Stuck_line { line = l } ->
    if l < 0 || l >= size t / line_size t then
      invalid_arg "Nvm.inject_fault: line out of range";
    Hashtbl.replace t.stuck l ()
  | Poison { line = l } ->
    if l < 0 || l >= size t / line_size t then
      invalid_arg "Nvm.inject_fault: line out of range";
    Hashtbl.replace t.poisoned l ());
  t.faults_injected <- t.faults_injected + 1

let is_poisoned t ~line:l = Hashtbl.mem t.poisoned l

let is_stuck t ~line:l = Hashtbl.mem t.stuck l

let poisoned_lines t = List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) t.poisoned [])

let stuck_lines t = List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) t.stuck [])

let set_decay t spec =
  t.decay <-
    Option.map
      (fun (rate, epoch, seed) ->
        if rate < 0.0 || rate > 1.0 then invalid_arg "Nvm.set_decay: rate must be in [0,1]";
        if epoch <= 0 then invalid_arg "Nvm.set_decay: epoch must be positive";
        { decay_rate = rate; decay_epoch = epoch; decay_rng = Rng.create seed })
      spec;
  t.decay_last_epoch <- (match t.decay with
    | Some d -> Sched.global_now () / d.decay_epoch
    | None -> 0)

(* One decay epoch: each persisted line independently rots with probability
   [decay_rate] (sampled as an expected count, at least the fractional
   remainder), flipping one random bit. *)
let decay_epoch_once t (d : decay) =
  let lines = size t / line_size t in
  let expect = d.decay_rate *. float_of_int lines in
  let n =
    int_of_float expect
    + (if Rng.float d.decay_rng < expect -. Float.of_int (int_of_float expect) then 1 else 0)
  in
  for _ = 1 to n do
    let l = Rng.int d.decay_rng lines in
    let off = (l * line_size t) + Rng.int d.decay_rng (line_size t) in
    flip_persisted_bit t ~off ~bit:(Rng.int d.decay_rng 8);
    t.faults_injected <- t.faults_injected + 1
  done

let decay_tick t = match t.decay with Some d -> decay_epoch_once t d | None -> ()

let run_decay t =
  match t.decay with
  | None -> ()
  | Some d ->
    let epoch = Sched.global_now () / d.decay_epoch in
    while t.decay_last_epoch < epoch do
      t.decay_last_epoch <- t.decay_last_epoch + 1;
      decay_epoch_once t d
    done

let media_faults_injected t = t.faults_injected

let media_faults_detected t = t.faults_detected

let media_faults_repaired t = t.faults_repaired

let note_media_detected t n = t.faults_detected <- t.faults_detected + n

let note_media_repaired t n = t.faults_repaired <- t.faults_repaired + n

(* ------------------------------------------------------------------ *)
(* Volatile-side access                                                *)
(* ------------------------------------------------------------------ *)

let mark_dirty t off len =
  let ls = t.cfg.Pmem_config.line_size in
  let first = line t off and last = line t (off + len - 1) in
  for l = first to last do
    let lo = max off (l * ls) and hi = min (off + len) ((l + 1) * ls) in
    match Hashtbl.find_opt t.dirty l with
    | Some c -> c := min ls (!c + hi - lo)
    | None -> Hashtbl.add t.dirty l (ref (hi - lo))
  done

let load_u64 t addr =
  check_poison_load t addr 8;
  Mem.get_u64 t.latest addr

let store_u64 t addr v =
  Mem.set_u64 t.latest addr v;
  mark_dirty t addr 8

let load_u8 t addr =
  check_poison_load t addr 1;
  Mem.get_u8 t.latest addr

let store_u8 t addr v =
  Mem.set_u8 t.latest addr v;
  mark_dirty t addr 1

let load_bytes t off len =
  check_poison_load t off len;
  Mem.get_bytes t.latest off len

let view_latest t off len f =
  check_poison_load t off len;
  Mem.view t.latest off len f

let store_bytes t off b =
  Mem.set_bytes t.latest off b;
  if Bytes.length b > 0 then mark_dirty t off (Bytes.length b)

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let flush_line t l =
  let ls = t.cfg.Pmem_config.line_size in
  let payload = match Hashtbl.find_opt t.dirty l with Some c -> !c | None -> 0 in
  if Hashtbl.mem t.stuck l then
    (* Stuck-at line: the write reaches the device but never sticks; a
       subsequent media read returns the stale content, so reload the cache
       from the (unchanged) persisted image to make that observable. *)
    Mem.blit ~src:t.persisted ~src_off:(l * ls) ~dst:t.latest ~dst_off:(l * ls) ~len:ls
  else begin
    Mem.blit ~src:t.latest ~src_off:(l * ls) ~dst:t.persisted ~dst_off:(l * ls) ~len:ls;
    (* Rewriting a whole line clears its poison (the model for repairing an
       uncorrectable location by writing fresh data over it). *)
    Hashtbl.remove t.poisoned l
  end;
  Hashtbl.remove t.dirty l;
  t.write_bytes <- t.write_bytes + payload;
  payload

let charge t bytes =
  t.persist_ops <- t.persist_ops + 1;
  if t.charge_time then begin
    let busy0 = Resource.busy_cycles t.channel in
    let cost =
      Resource.transfer t.channel ~now:(Sched.now ()) ~bytes
        ~latency:t.cfg.Pmem_config.persist_latency
    in
    (* Every cycle the NVM channel ever costs anyone flows through here, so
       this one call gives the per-thread "who pays for persistence" split;
       the channel's occupied cycles give the device's busy time. *)
    Trace.nvm_transfer ~dev:t.label ~bytes ~cycles:cost
      ~busy:(Resource.busy_cycles t.channel - busy0);
    Sched.advance cost
  end
  else Trace.nvm_transfer ~dev:t.label ~bytes ~cycles:0 ~busy:0;
  run_decay t

let flush_range t ~off ~len =
  if len < 0 || off < 0 || off + len > size t then invalid_arg "Nvm.persist: bad range";
  let bytes = ref 0 in
  if len > 0 then begin
    let first = line t off and last = line t (off + len - 1) in
    for l = first to last do
      if Hashtbl.mem t.dirty l then begin
        bytes := !bytes + flush_line t l;
        fire_hook t
      end
    done
  end;
  !bytes

let persist t ~off ~len =
  fire_hook t;
  charge t (flush_range t ~off ~len)

let persist_ranges t ranges =
  fire_hook t;
  let bytes = List.fold_left (fun acc (off, len) -> acc + flush_range t ~off ~len) 0 ranges in
  charge t bytes

let persist_all t = persist t ~off:0 ~len:(size t)

let dirty_lines t = Hashtbl.length t.dirty

let crash ?(evict_fraction = 0.0) ?rng t =
  (match rng with
  | Some rng when evict_fraction > 0.0 ->
    let survivors =
      Hashtbl.fold
        (fun l _ acc -> if Rng.float rng < evict_fraction then l :: acc else acc)
        t.dirty []
    in
    (* Evicted lines reach NVM without any ordering guarantee; the subset
       choice is the adversarial part. *)
    let survivors = List.sort compare survivors in
    List.iter (fun l -> ignore (flush_line t l)) survivors;
    t.last_crash_survivors <- survivors
  | _ -> t.last_crash_survivors <- []);
  Hashtbl.reset t.dirty;
  Mem.blit_from ~src:t.persisted t.latest;
  Resource.reset t.channel

let last_crash_survivors t = t.last_crash_survivors

let persisted_u64 t addr =
  check_poison_media t addr 8;
  Mem.get_u64 t.persisted addr

let persisted_bytes t off len =
  check_poison_media t off len;
  Mem.get_bytes t.persisted off len

let view_persisted t off len f =
  check_poison_media t off len;
  Mem.view t.persisted off len f

let persisted_bytes_equal t off b =
  let len = Bytes.length b in
  if off < 0 || off + len > size t then false
  else begin
    check_poison_media t off len;
    let rec go i =
      i >= len || (Mem.get_u8 t.persisted (off + i) = Char.code (Bytes.get b i) && go (i + 1))
    in
    go 0
  end

let persisted_write_bytes t = t.write_bytes

let persist_ops t = t.persist_ops

let reset_counters t =
  t.write_bytes <- 0;
  t.persist_ops <- 0
