(* Multi-tenant serving front end over the sharded engine.

   Requests are handed over BY REFERENCE: a session owns a small pool of
   request descriptors (plain mutable records — key and payload are
   unboxed int64 fields, nothing is serialized or copied on the hot path)
   and transfers ownership of one to the pipeline at [submit]; it gets the
   descriptor back, reply filled in, at the durable acknowledgement.  Any
   access against the ownership direction raises [Descriptor_in_flight].

   Admission control sheds writes with a typed [R_overloaded] reply when
   the hysteresis gate ([Admission]) trips on queue depth or engine ring
   pressure; read-only requests bypass the write-admission gate (they cost
   the engine no log space) but still respect the hard queue bound.
   Dispatch is deficit-round-robin across tenants so one hot tenant cannot
   starve the others.  Write acknowledgements are released by a per-shard
   acker strictly at the shard's durable watermark ([Sh.wait_durable]) —
   the acked-prefix invariant the crash campaign checks.

   Under the [Skip_admission_gate] fault the gate is stubbed out: nothing
   is ever shed (the bounded queue grows without limit) and write replies
   are released at commit instead of at the durable watermark — a power
   cut mid-burst then loses acknowledged requests, which is exactly what
   [dudetm check --serve] must catch. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Trace = Dudetm_trace.Trace
module Config = Dudetm_core.Config

exception Descriptor_in_flight of string

exception Invalid_serve_config of string

type op = Write of { key : int64; payload : int64 } | Read of { key : int64 }

type reply =
  | R_pending
  | R_value of int64  (* read result *)
  | R_executed of { shard : int; tid : int }  (* durable write ack *)
  | R_overloaded  (* shed by admission control; not executed *)
  | R_aborted  (* application called abort; not executed *)

type owner = By_session | By_pipeline

type config = {
  queue_capacity : int;  (* hard bound on queued requests, all tenants *)
  trip_depth : int;  (* admission gate trips at this queue depth *)
  untrip_depth : int;  (* ... and reopens at this one (hysteresis gap) *)
  drr_quantum : int;  (* requests per tenant per round-robin round *)
  slots_per_session : int;  (* descriptor pool = open-loop window *)
  workers_per_shard : int;  (* dispatcher fibers (engine threads) per shard *)
}

let default_config =
  {
    queue_capacity = 64;
    trip_depth = 48;
    untrip_depth = 16;
    drr_quantum = 4;
    slots_per_session = 8;
    workers_per_shard = 2;
  }

let validate_config c =
  let fail msg = raise (Invalid_serve_config ("Serve: " ^ msg)) in
  if c.queue_capacity < 1 then fail "queue_capacity < 1";
  if c.trip_depth < 1 || c.trip_depth > c.queue_capacity then
    fail "trip_depth outside [1, queue_capacity]";
  if c.untrip_depth < 0 || c.untrip_depth >= c.trip_depth then
    fail "need 0 <= untrip_depth < trip_depth";
  if c.drr_quantum < 1 then fail "drr_quantum < 1";
  if c.slots_per_session < 1 then fail "slots_per_session < 1";
  if c.workers_per_shard < 1 then fail "workers_per_shard < 1"

module Make (Tm : Dudetm_tm.Tm_intf.S) = struct
  module Sh = Dudetm_shard.Shard.Make (Tm)
  module Engine = Sh.Engine

  (* The application binds keys to transactional reads/writes; keeping
     these as per-instance closures keeps the descriptor itself plain data
     (zero-copy handoff) while the serve layer stays key-value agnostic. *)
  type app = {
    shard_of : int64 -> int;
    write : Sh.tx -> shard:int -> key:int64 -> payload:int64 -> unit;
    read : Sh.tx -> shard:int -> key:int64 -> int64;
  }

  type desc = {
    tenant : int;
    session : int;
    mutable owner : owner;
    mutable op : op;
    mutable rep : reply;
    mutable t_submit : int;
    mutable t_reply : int;
  }

  type t = {
    sh : Sh.t;
    app : app;
    cfg : config;
    ntenants : int;
    mutant : bool;  (* Skip_admission_gate: never shed, ack at commit *)
    gate : Admission.t;
    (* queues.(shard).(tenant): accepted requests awaiting dispatch *)
    queues : desc Queue.t array array;
    (* pending.(shard): committed writes awaiting the durable watermark *)
    pending : (desc * Sh.ack) Queue.t array;
    (* Per shard: rung on a push to its queues (and on [stopping]), and on
       a push to its pending acks — the dispatchers' and the acker's
       wake stamps. *)
    queued_bell : Sched.bell array;
    pending_bell : Sched.bell array;
    mutable depth : int;  (* total queued (accepted, undispatched) *)
    mutable depth_hwm : int;
    mutable in_flight : int;  (* accepted and not yet replied *)
    mutable stopping : bool;
    stats : Stats.t;
    tenant_done : int array;
    tenant_shed : int array;
  }

  let shed_total t = Array.fold_left ( + ) 0 t.tenant_shed

  let create ?(scfg = default_config) ~app ~ntenants sh =
    validate_config scfg;
    if ntenants < 1 then raise (Invalid_serve_config "Serve: ntenants < 1");
    let ecfg = Sh.config sh in
    if scfg.workers_per_shard > ecfg.Config.nthreads then
      raise
        (Invalid_serve_config
           "Serve: workers_per_shard exceeds the engine's Perform threads");
    let nshards = Sh.nshards sh in
    let t =
      {
        sh;
        app;
        cfg = scfg;
        ntenants;
        mutant = ecfg.Config.fault = Config.Skip_admission_gate;
        gate = Admission.create ~trip:scfg.trip_depth ~untrip:scfg.untrip_depth;
        queues =
          Array.init nshards (fun _ ->
              Array.init ntenants (fun _ -> Queue.create ()));
        pending = Array.init nshards (fun _ -> Queue.create ());
        queued_bell = Array.init nshards (fun _ -> Sched.bell ());
        pending_bell = Array.init nshards (fun _ -> Sched.bell ());
        depth = 0;
        depth_hwm = 0;
        in_flight = 0;
        stopping = false;
        stats = Stats.create ();
        tenant_done = Array.make ntenants 0;
        tenant_shed = Array.make ntenants 0;
      }
    in
    (* Fold front-end state into every region's Drain_stalled diagnostic:
       "engine stalled" and "front end overloaded" must be tellable
       apart from the exception payload alone. *)
    let ctx () =
      Printf.sprintf "frontend: queue_depth=%d in_flight=%d shed=%d gate=%s"
        t.depth t.in_flight (shed_total t)
        (match Admission.state t.gate with
        | Admission.Open -> "open"
        | Admission.Shedding -> "shedding")
    in
    for s = 0 to nshards - 1 do
      Engine.set_drain_context (Sh.engine sh s) (Some ctx)
    done;
    t

  let engine_pressure t =
    let n = Sh.nshards t.sh in
    let rec any s = s < n && (Engine.ring_pressure (Sh.engine t.sh s) || any (s + 1)) in
    any 0

  (* ------------------------- descriptors ---------------------------- *)

  let make_desc ~tenant ~session op =
    {
      tenant;
      session;
      owner = By_session;
      op;
      rep = R_pending;
      t_submit = 0;
      t_reply = 0;
    }

  let set_op d op =
    if d.owner <> By_session then
      raise (Descriptor_in_flight "set_op: descriptor owned by the pipeline");
    d.op <- op;
    d.rep <- R_pending

  let reply d =
    if d.owner <> By_session then
      raise (Descriptor_in_flight "reply: descriptor owned by the pipeline");
    d.rep

  let op_of d = d.op

  let tenant_of d = d.tenant

  let latency d = d.t_reply - d.t_submit

  (* --------------------------- submit ------------------------------- *)

  let key_of = function Write { key; _ } -> key | Read { key; _ } -> key

  let finish t d rep =
    Trace.span_begin ~cat:"serve" "reply";
    d.rep <- rep;
    d.t_reply <- Sched.global_now ();
    d.owner <- By_session;
    t.in_flight <- t.in_flight - 1;
    t.tenant_done.(d.tenant) <- t.tenant_done.(d.tenant) + 1;
    Stats.incr t.stats "replies";
    Trace.span_end ~cat:"serve" "reply"

  let submit t d =
    if d.owner <> By_session then
      raise (Descriptor_in_flight "submit: descriptor already in flight");
    Trace.span_begin ~cat:"serve" "enqueue";
    Stats.incr t.stats "submitted";
    d.t_submit <- Sched.global_now ();
    d.rep <- R_pending;
    let shard = t.app.shard_of (key_of d.op) in
    let is_write = match d.op with Write _ -> true | Read _ -> false in
    let pressure = engine_pressure t in
    (* Feed the gate on every arrival (reads included) so it trips and
       reopens from depth alone even if the write mix dries up. *)
    let gate_state = Admission.observe t.gate ~depth:t.depth ~pressure in
    let shed =
      if t.mutant then false
      else if t.depth >= t.cfg.queue_capacity then true
      else is_write && gate_state = Admission.Shedding
    in
    if shed then begin
      d.rep <- R_overloaded;
      d.t_reply <- Sched.global_now ();
      t.tenant_shed.(d.tenant) <- t.tenant_shed.(d.tenant) + 1;
      Stats.incr t.stats "shed";
      Trace.instant ~cat:"serve" "shed" d.tenant;
      Trace.span_end ~cat:"serve" "enqueue";
      false
    end
    else begin
      d.owner <- By_pipeline;
      Queue.push d t.queues.(shard).(d.tenant);
      Sched.ring t.queued_bell.(shard);
      t.depth <- t.depth + 1;
      if t.depth > t.depth_hwm then t.depth_hwm <- t.depth;
      t.in_flight <- t.in_flight + 1;
      Stats.incr t.stats "accepted";
      Trace.span_end ~cat:"serve" "enqueue";
      true
    end

  let await d =
    Sched.wait_until ~label:"serve reply" (fun () ->
        d.owner = By_session && d.rep <> R_pending);
    d.rep

  (* -------------------------- dispatch ------------------------------ *)

  let executed_of home = function
    | Sh.Ack_local { shard; tid } -> R_executed { shard; tid }
    | Sh.Ack_cross { gtid } -> R_executed { shard = home; tid = gtid }
    | Sh.Ack_read_only -> R_executed { shard = home; tid = 0 }

  let dispatch_one t ~shard ~thread d =
    Trace.span_begin ~cat:"serve" "dispatch";
    (match d.op with
    | Read { key } -> (
      Stats.incr t.stats "reads";
      match
        Sh.atomically_ro t.sh ~thread ~shard (fun tx ->
            t.app.read tx ~shard ~key)
      with
      | Some (v, _epoch) -> finish t d (R_value v)
      | None -> finish t d R_aborted)
    | Write { key; payload } -> (
      Stats.incr t.stats "writes";
      match
        Sh.atomically t.sh ~thread ~shards:[ shard ] (fun tx ->
            t.app.write tx ~shard ~key ~payload)
      with
      | Some ((), ack) ->
        if t.mutant then
          (* BUG (Skip_admission_gate): acknowledge at commit, before the
             log record's NVM persist — a crash here loses an acked
             request. *)
          finish t d (executed_of shard ack)
        else (
          match ack with
          | Sh.Ack_read_only -> finish t d (executed_of shard ack)
          | ack ->
            Queue.push (d, ack) t.pending.(shard);
            Sched.ring t.pending_bell.(shard))
      | None -> finish t d R_aborted));
    Trace.span_end ~cat:"serve" "dispatch"

  let shard_depth t shard =
    Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues.(shard)

  (* Deficit round-robin over tenants: each round a tenant earns
     [drr_quantum] credits (capped at one unused round's worth) and spends
     one per dispatched request; an empty queue forfeits the balance.
     With unit-cost requests this caps any tenant's share of a contested
     dispatcher at quantum-per-round while letting an alone-in-the-queue
     tenant use the whole worker. *)
  let dispatcher t ~shard ~thread () =
    let q = t.cfg.drr_quantum in
    let deficit = Array.make t.ntenants 0 in
    while not t.stopping do
      if shard_depth t shard = 0 then
        Sched.wait_until ~on:t.queued_bell.(shard) ~label:"serve dispatch" (fun () ->
            t.stopping || shard_depth t shard > 0)
      else begin
        let progressed = ref false in
        for tenant = 0 to t.ntenants - 1 do
          let queue = t.queues.(shard).(tenant) in
          if Queue.is_empty queue then deficit.(tenant) <- 0
          else begin
            deficit.(tenant) <- min (2 * q) (deficit.(tenant) + q);
            while deficit.(tenant) > 0 && not (Queue.is_empty queue) do
              let d = Queue.pop queue in
              t.depth <- t.depth - 1;
              deficit.(tenant) <- deficit.(tenant) - 1;
              progressed := true;
              dispatch_one t ~shard ~thread d
            done
          end
        done;
        if not !progressed then Sched.yield ()
      end
    done

  (* Release write acks strictly in commit order at the shard's durable
     watermark.  FIFO is sound: single-shard tids are assigned at commit,
     so the pending queue is already sorted and each wait is monotone. *)
  let acker t ~shard () =
    while true do
      Sched.wait_until ~on:t.pending_bell.(shard) ~label:"serve ack" (fun () ->
          not (Queue.is_empty t.pending.(shard)));
      let d, ack = Queue.peek t.pending.(shard) in
      Sh.wait_durable t.sh ack;
      ignore (Queue.pop t.pending.(shard));
      finish t d (executed_of shard ack)
    done

  let start t =
    Sh.start t.sh;
    for shard = 0 to Sh.nshards t.sh - 1 do
      for w = 0 to t.cfg.workers_per_shard - 1 do
        ignore
          (Sched.spawn ~daemon:true
             (Printf.sprintf "serve-dispatch-%d-%d" shard w)
             (dispatcher t ~shard ~thread:w))
      done;
      ignore
        (Sched.spawn ~daemon:true
           (Printf.sprintf "serve-ack-%d" shard)
           (acker t ~shard))
    done

  let drain t =
    let deadline =
      Sched.global_now () + (Sh.config t.sh).Config.drain_budget
    in
    Sched.wait_until ~label:"serve drain" (fun () ->
        t.in_flight = 0 || Sched.global_now () >= deadline);
    if t.in_flight <> 0 then
      raise
        (Dudetm_core.Dudetm.Drain_stalled
           (Engine.drain_diagnostic (Sh.engine t.sh 0)));
    Sh.drain t.sh

  let stop t =
    drain t;
    t.stopping <- true;
    Array.iter Sched.ring t.queued_bell;
    Sh.stop t.sh

  (* -------------------------- sessions ------------------------------ *)

  type session = {
    srv : t;
    tenant : int;
    sid : int;
    slots : desc array;
    in_use : bool array;
    free : int Queue.t;
    mutable blocked : int;  (* open-loop window-exhausted stalls *)
  }

  let session t ~tenant ~sid =
    let n = t.cfg.slots_per_session in
    let slots =
      Array.init n (fun _ ->
          make_desc ~tenant ~session:sid (Read { key = 0L }))
    in
    let free = Queue.create () in
    for i = 0 to n - 1 do
      Queue.push i free
    done;
    { srv = t; tenant; sid; slots; in_use = Array.make n false; free; blocked = 0 }

  let run_closed s rng ~reqs ~think ~gen ~on_reply =
    let d = s.slots.(0) in
    for _ = 1 to reqs do
      set_op d (gen rng);
      if submit s.srv d then ignore (await d);
      on_reply d;
      if think > 0 then Sched.advance think
    done

  (* Open loop: Poisson arrivals paced by [Sched.advance]; the descriptor
     pool is the client window.  A full window blocks the arrival process
     (and is counted in [blocked]) — at that point the measured system is
     saturated well past the shedding knee. *)
  let run_open s rng ~reqs ~mean_gap ~gen ~on_reply =
    let harvest () =
      for i = 0 to Array.length s.slots - 1 do
        if s.in_use.(i) && s.slots.(i).owner = By_session then begin
          s.in_use.(i) <- false;
          on_reply s.slots.(i);
          Queue.push i s.free
        end
      done
    in
    let some_replied () =
      let n = Array.length s.slots in
      let rec go i =
        i < n && ((s.in_use.(i) && s.slots.(i).owner = By_session) || go (i + 1))
      in
      go 0
    in
    for _ = 1 to reqs do
      let u = Dudetm_sim.Rng.float rng in
      let gap =
        max 1
          (int_of_float (-.log (max 1e-9 (1.0 -. u)) *. float_of_int mean_gap))
      in
      Sched.advance gap;
      harvest ();
      if Queue.is_empty s.free then begin
        s.blocked <- s.blocked + 1;
        Sched.wait_until ~label:"serve window" some_replied;
        harvest ()
      end;
      let i = Queue.pop s.free in
      let d = s.slots.(i) in
      set_op d (gen rng);
      if submit s.srv d then s.in_use.(i) <- true
      else begin
        on_reply d;
        Queue.push i s.free
      end
    done;
    (* Tail: collect every outstanding reply. *)
    let all_back () =
      let n = Array.length s.slots in
      let rec go i = i >= n || ((not s.in_use.(i)) || s.slots.(i).owner = By_session) && go (i + 1) in
      go 0
    in
    Sched.wait_until ~label:"serve tail" all_back;
    harvest ()

  let session_blocked s = s.blocked

  (* ------------------------ introspection --------------------------- *)

  let shard t = t.sh

  let config t = t.cfg

  let depth t = t.depth

  let depth_hwm t = t.depth_hwm

  let in_flight t = t.in_flight

  let gate t = t.gate

  let stats t = t.stats

  let tenant_done t i = t.tenant_done.(i)

  let tenant_shed t i = t.tenant_shed.(i)

  let counters t =
    ("gate_trips", Admission.trips t.gate)
    :: ("gate_untrips", Admission.untrips t.gate)
    :: ("queue_depth_hwm", t.depth_hwm)
    :: Stats.to_list t.stats
end
