module Nvm = Dudetm_nvm.Nvm
module Rng = Dudetm_sim.Rng
module Sched = Dudetm_sim.Sched
module Plog = Dudetm_log.Plog
module Config = Dudetm_core.Config
module Dudetm = Dudetm_core.Dudetm
module Scrub = Dudetm_scrub.Scrub
module Ptm = Dudetm_baselines.Ptm_intf
module Dude_ptm = Dudetm_baselines.Dude_ptm
module Mnemosyne = Dudetm_baselines.Mnemosyne
module Nvml = Dudetm_baselines.Nvml

module C = Campaign

(* ------------------------------------------------------------------ *)
(* Systems under test                                                 *)
(* ------------------------------------------------------------------ *)

type recovered = { rec_durable : int option; rec_peek : int -> int64 }

type instance = {
  ptm : Ptm.t;
  inst_nvm : Nvm.t;
  recover : unit -> recovered;
}

type sut = {
  sut_name : string;
  sut_fault : Config.fault;
  sut_static : bool;
  fresh : unit -> instance;
}

(* Small layouts keep a single checked run in the low milliseconds: the
   budgets below run hundreds of them. *)
let dude_cfg ~combine ~fault =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    root_size = 4096;
    nthreads = 3;
    vlog_capacity = 256;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    group_size = (if combine then 2 else 1);
    combine;
    compress = combine;
    persist_threads = 1;
    reproduce_batch = 4;
    (* checkpoint early and often: ring recycling is where Reproduce
       ordering bugs become observable *)
    checkpoint_records = 2;
    seed = 7;
    fault;
  }

let sut_label sut =
  match sut.sut_fault with
  | Config.No_fault -> sut.sut_name
  | f -> sut.sut_name ^ "+" ^ C.mutant_name f

let dude_like name (ptm_of_cfg, attach_of_cfg) ?(fault = Config.No_fault) () =
  let cfg = dude_cfg ~combine:(name = "dude-combine") ~fault in
  let fresh () =
    let p, _t = ptm_of_cfg cfg in
    let nvm = match p.Ptm.nvm with Some n -> n | None -> assert false in
    {
      ptm = p;
      inst_nvm = nvm;
      recover =
        (fun () ->
          let p2, _t2, report = attach_of_cfg cfg nvm in
          { rec_durable = Some report.Dudetm.durable; rec_peek = p2.Ptm.peek });
    }
  in
  { sut_name = name; sut_fault = fault; sut_static = false; fresh }

let stm_ctor = ((fun cfg -> Dude_ptm.Stm.ptm cfg), fun cfg nvm -> Dude_ptm.Stm.attach_ptm cfg nvm)

let htm_ctor =
  ((fun cfg -> Dude_ptm.Htm_based.ptm cfg), fun cfg nvm -> Dude_ptm.Htm_based.attach_ptm cfg nvm)

let dude ?fault () = dude_like "dude" stm_ctor ?fault ()

let dude_combine ?fault () = dude_like "dude-combine" stm_ctor ?fault ()

let dude_htm () = dude_like "dude-htm" htm_ctor ()

let mnemosyne () =
  let cfg =
    {
      Mnemosyne.default_config with
      Mnemosyne.heap_size = 1 lsl 16;
      nthreads = 3;
      log_size = 1 lsl 13;
      seed = 7;
    }
  in
  let fresh () =
    let m = Mnemosyne.create cfg in
    let p = Mnemosyne.ptm_of m in
    {
      ptm = p;
      inst_nvm = Mnemosyne.nvm m;
      recover =
        (fun () ->
          ignore (Mnemosyne.recover m);
          { rec_durable = None; rec_peek = p.Ptm.peek });
    }
  in
  { sut_name = "mnemosyne"; sut_fault = Config.No_fault; sut_static = false; fresh }

let nvml () =
  let cfg =
    {
      Nvml.default_config with
      Nvml.heap_size = 1 lsl 16;
      nthreads = 3;
      log_size = 1 lsl 13;
      seed = 7;
    }
  in
  let fresh () =
    let n = Nvml.create cfg in
    let p = Nvml.ptm_of n in
    {
      ptm = p;
      inst_nvm = Nvml.nvm n;
      recover =
        (fun () ->
          ignore (Nvml.recover n);
          { rec_durable = None; rec_peek = p.Ptm.peek });
    }
  in
  { sut_name = "nvml"; sut_fault = Config.No_fault; sut_static = true; fresh }

let sut_names = [ "dude"; "dude-combine"; "dude-htm"; "mnemosyne"; "nvml" ]

let sut_of_name ?fault name =
  match name with
  | "dude" -> dude ?fault ()
  | "dude-combine" -> dude_combine ?fault ()
  | "dude-htm" -> dude_htm ()
  | "mnemosyne" -> mnemosyne ()
  | "nvml" -> nvml ()
  | s -> invalid_arg ("Check.sut_of_name: unknown system " ^ s)

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type workload = {
  wl_name : string;
  threads : int;
  txs_per_thread : int;
  wl_static : bool;
  wl_wset : int list option;
  tx_body : Ptm.tx -> unit;
  wl_root : int;
  check_state : peek:(int -> int64) -> k:int -> string option;
}

(* Counter family: transaction number i (in serialization order) always
   writes the root counter to i, so the whole durable state is a function
   of the recovered counter alone — which transaction ran on which thread
   never matters. *)
let slot_addr j = 8 + (8 * j)

let slot_check ~slots ~stamp ~peek ~k =
  let expect = Array.make slots 0 in
  for i = 1 to k do
    List.iter (fun j -> expect.(j) <- i) (stamp i)
  done;
  let bad = ref None in
  for j = slots - 1 downto 0 do
    let got = Int64.to_int (peek (slot_addr j)) in
    if got <> expect.(j) then
      bad :=
        Some
          (Printf.sprintf "slot %d holds %d, model says %d after %d commits" j got expect.(j) k)
  done;
  !bad

let counter_family name ~slots ~stamp ~threads ~txs =
  {
    wl_name = name;
    threads;
    txs_per_thread = txs;
    wl_static = false;
    wl_wset = None;
    tx_body =
      (fun tx ->
        let c1 = 1 + Int64.to_int (tx.Ptm.read 0) in
        List.iter (fun j -> tx.Ptm.write (slot_addr j) (Int64.of_int c1)) (stamp c1);
        tx.Ptm.write 0 (Int64.of_int c1));
    wl_root = 0;
    check_state = (fun ~peek ~k -> slot_check ~slots ~stamp ~peek ~k);
  }

let counter ~threads ~txs =
  let slots = 8 in
  counter_family "counter" ~slots ~stamp:(fun i -> [ i mod slots ]) ~threads ~txs

let overlap ~threads ~txs =
  let slots = 5 in
  counter_family "overlap" ~slots
    ~stamp:(fun i -> [ i mod slots; (i + 1) mod slots ])
    ~threads ~txs

let counter1 ~threads ~txs =
  {
    wl_name = "counter1";
    threads;
    txs_per_thread = txs;
    wl_static = true;
    wl_wset = Some [ 0 ];
    tx_body =
      (fun tx ->
        let c1 = 1 + Int64.to_int (tx.Ptm.read 0) in
        tx.Ptm.write 0 (Int64.of_int c1));
    wl_root = 0;
    check_state = (fun ~peek:_ ~k:_ -> None);
  }

let workload_of_name ~threads ~txs = function
  | "counter" -> counter ~threads ~txs
  | "overlap" -> overlap ~threads ~txs
  | "counter1" -> counter1 ~threads ~txs
  | s -> invalid_arg ("Check.workload_of_name: unknown workload " ^ s)

let workloads_for sut ~threads ~txs =
  if sut.sut_static then [ counter1 ~threads ~txs ]
  else [ counter ~threads ~txs; overlap ~threads ~txs ]

(* ------------------------------------------------------------------ *)
(* Budgets                                                            *)
(* ------------------------------------------------------------------ *)

type budget = {
  crash_sites : int;
  sched_seeds : int;
  crash_sites_per_seed : int;
  exhaustive_runs : int;
  exhaustive_depth : int;
}

let base_budget =
  {
    crash_sites = 40;
    sched_seeds = 3;
    crash_sites_per_seed = 8;
    exhaustive_runs = 24;
    exhaustive_depth = 6;
  }

let deep_budget =
  {
    crash_sites = 400;
    sched_seeds = 12;
    crash_sites_per_seed = 40;
    exhaustive_runs = 300;
    exhaustive_depth = 10;
  }

let quick_budget = base_budget

let engine_budget = function
  | C.Deep -> deep_budget
  | C.Scaled m when m > 1 ->
    {
      base_budget with
      crash_sites = base_budget.crash_sites * m;
      crash_sites_per_seed = base_budget.crash_sites_per_seed * m;
      exhaustive_runs = base_budget.exhaustive_runs * m;
      exhaustive_depth = base_budget.exhaustive_depth + 2;
    }
  | C.Quick | C.Scaled _ -> base_budget

let tier1_budget () = engine_budget (C.env_level ())

(* ------------------------------------------------------------------ *)
(* One checked run                                                    *)
(* ------------------------------------------------------------------ *)

type sched_spec = Default | Seed of int | Prefix of int list

let sched_to_string = function
  | Default -> "default"
  | Seed n -> Printf.sprintf "seed:%d" n
  | Prefix l -> "prefix:" ^ String.concat "," (List.map string_of_int l)

let sched_of_string s =
  let bad () = invalid_arg ("Check.sched_of_string: " ^ s) in
  if s = "default" then Default
  else
    match String.index_opt s ':' with
    | None -> bad ()
    | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "seed" -> ( match int_of_string_opt rest with Some n -> Seed n | None -> bad ())
      | "prefix" ->
        if rest = "" then Prefix []
        else
          Prefix
            (List.map
               (fun c -> match int_of_string_opt c with Some n -> n | None -> bad ())
               (String.split_on_char ',' rest))
      | _ -> bad ())

let strategy_of = function
  | Default -> Sched.min_clock
  | Seed n -> Sched.random_priority ~seed:n
  | Prefix l ->
    let arr = Array.of_list l in
    Sched.Choice
      (fun ~step ~candidates:_ -> if step < Array.length arr then arr.(step) else 0)

type outcome = {
  oc_sites : int;
  oc_deadlock : string option;
  oc_committed : int;
  oc_acked : int;
  oc_last_tid : int;
  oc_monitor : string option;
  oc_survivors : int list;
  oc_recov : recovered;
}

(* Run the workload once under [strategy].  [crash = Some k] cuts power at
   the [k]-th persist boundary; [crash = None] runs to quiescence.  Either
   way the device then loses all volatile state and the system recovers.
   [evict = Some (fraction, seed)] leaks a seeded random subset of dirty
   cache lines into the persisted image at the power cut — the surviving
   lines are recorded in the outcome, so (fraction, seed) makes the
   eviction exactly replayable. *)
let run_once ?evict ~sut ~wl ~strategy ~crash () =
  let inst = sut.fresh () in
  let p = inst.ptm in
  let acked = ref 0 in
  let monitor_err = ref None in
  let committed = ref 0 in
  (* Sampling the durable ID at the boundary captures exactly what was
     acknowledged when the power goes out. *)
  let sample () =
    let d = p.Ptm.durable_id () in
    if d > !acked then acked := d
  in
  let cut = C.cutter ~sample ?at:crash [ inst.inst_nvm ] in
  let main () =
    p.Ptm.start ();
    let last_d = ref 0 in
    ignore
      (Sched.spawn ~daemon:true "check-monitor" (fun () ->
           try
             while true do
               let d = p.Ptm.durable_id () in
               let l = p.Ptm.last_tid () in
               if d < !last_d && !monitor_err = None then
                 monitor_err :=
                   Some (Printf.sprintf "durable id regressed from %d to %d" !last_d d);
               if d > l && !monitor_err = None then
                 monitor_err :=
                   Some (Printf.sprintf "durable id %d ahead of last issued tid %d" d l);
               if d > !last_d then last_d := d;
               if d > !acked then acked := d;
               Sched.advance 100
             done
           with Sched.Killed -> ()));
    let done_workers = ref 0 in
    for th = 0 to wl.threads - 1 do
      ignore
        (Sched.spawn (Printf.sprintf "check-worker-%d" th) (fun () ->
             for _ = 1 to wl.txs_per_thread do
               match p.Ptm.atomically ~thread:th ?wset:wl.wl_wset wl.tx_body with
               | Some ((), tid) -> if tid > 0 then incr committed
               | None -> ()
             done;
             incr done_workers))
    done;
    Sched.wait_until ~label:"check workers done" (fun () -> !done_workers = wl.threads);
    p.Ptm.drain ();
    p.Ptm.stop ()
  in
  (* Armed only now: device formatting during [fresh] happens before any
     transaction exists, so its persists are not crash candidates. *)
  let ended = C.cut_run cut (fun () -> Sched.run ~strategy main) in
  let deadlock = ref (C.error ~who:"engine" ended) in
  (* Nothing ran since the cut, so this still reads the pre-crash value. *)
  sample ();
  let last_tid = p.Ptm.last_tid () in
  (match evict with
  | Some (fraction, seed) ->
    Nvm.crash ~evict_fraction:fraction ~rng:(Rng.create seed) inst.inst_nvm
  | None -> Nvm.crash inst.inst_nvm);
  let survivors = Nvm.last_crash_survivors inst.inst_nvm in
  let recov =
    try inst.recover ()
    with e ->
      deadlock := Some ("recovery raised " ^ Printexc.to_string e);
      { rec_durable = None; rec_peek = (fun _ -> 0L) }
  in
  {
    oc_sites = cut.seen;
    oc_deadlock = !deadlock;
    oc_committed = !committed;
    oc_acked = !acked;
    oc_last_tid = last_tid;
    oc_monitor = !monitor_err;
    oc_survivors = survivors;
    oc_recov = recov;
  }

let verify ~wl ~quiescent (o : outcome) =
  match o.oc_deadlock with
  | Some m -> Some m
  | None -> (
    match o.oc_monitor with
    | Some m -> Some m
    | None -> (
      let peek = o.oc_recov.rec_peek in
      let k = Int64.to_int (peek wl.wl_root) in
      if k < 0 then Some (Printf.sprintf "recovered counter is negative: %d" k)
        (* A transaction can be mid-acknowledgment per thread, so the
           recovered counter may exceed the last *observed* issued ID by at
           most the thread count. *)
      else if k > o.oc_last_tid + wl.threads then
        Some
          (Printf.sprintf "recovered counter %d beyond issued ids (last tid %d)" k
             o.oc_last_tid)
      else if k < o.oc_acked then
        Some
          (Printf.sprintf
             "durability lost: durable id %d was acknowledged, recovery found only %d"
             o.oc_acked k)
      else
        match o.oc_recov.rec_durable with
        | Some d when d <> k ->
          Some
            (Printf.sprintf "recovery reports durable id %d but the data image shows %d" d k)
        | _ ->
          if quiescent && k <> o.oc_committed then
            Some
              (Printf.sprintf "quiescent crash lost transactions: committed %d, recovered %d"
                 o.oc_committed k)
          else wl.check_state ~peek ~k))

let run_and_verify ?evict ~sut ~wl ~spec ~crash () =
  let o = run_once ?evict ~sut ~wl ~strategy:(strategy_of spec) ~crash () in
  (verify ~wl ~quiescent:(crash = None && evict = None) o, o)

let replay ?evict sut wl ~sched ~crash = fst (run_and_verify ?evict ~sut ~wl ~spec:sched ~crash ())

let count_sites sut wl ~sched =
  (run_once ~sut ~wl ~strategy:(strategy_of sched) ~crash:None ()).oc_sites

(* ------------------------------------------------------------------ *)
(* Exploration                                                        *)
(* ------------------------------------------------------------------ *)

(* First failing case under one schedule: the quiescent run first (it also
   counts boundaries), then crash boundaries in ascending order. *)
let first_failing ?evict ~sut ~wl ~spec ~max_sites ~sample ~runs ~sites_total () =
  incr runs;
  let err0, o0 = run_and_verify ?evict ~sut ~wl ~spec ~crash:None () in
  sites_total := !sites_total + o0.oc_sites;
  match err0 with
  | Some r -> Some (None, r)
  | None ->
    let site_list =
      if sample then C.sample_sites ~s:o0.oc_sites ~n:max_sites
      else List.init (min o0.oc_sites max_sites) (fun i -> i + 1)
    in
    List.fold_left
      (fun found k ->
        match found with
        | Some _ -> found
        | None -> (
          incr runs;
          match replay ?evict sut wl ~sched:spec ~crash:(Some k) with
          | Some r -> Some (Some k, r)
          | None -> None))
      None site_list

let shrink ?evict ~sut ~wl ~spec ~crash ~reason ~runs ~sites_total () =
  let scan = 120 in
  let best = ref (wl, spec, crash, reason) in
  (* A default-schedule reproduction beats any seed. *)
  (if spec <> Default then
     match
       first_failing ?evict ~sut ~wl ~spec:Default ~max_sites:scan ~sample:false ~runs
         ~sites_total ()
     with
     | Some (c, r) -> best := (wl, Default, c, r)
     | None -> ());
  (* Fewest transactions per thread. *)
  let bwl, bspec, _, _ = !best in
  (try
     for txs = 1 to bwl.txs_per_thread - 1 do
       let wl' = { bwl with txs_per_thread = txs } in
       match
         first_failing ?evict ~sut ~wl:wl' ~spec:bspec ~max_sites:scan ~sample:false ~runs
           ~sites_total ()
       with
       | Some (c, r) ->
         best := (wl', bspec, c, r);
         raise Exit
       | None -> ()
     done
   with Exit -> ());
  (* Earliest failing crash boundary (ascending scans above already are). *)
  let bwl, bspec, bcrash, _ = !best in
  (match bcrash with
  | Some k when k > 1 ->
    (try
       for k' = 1 to min (k - 1) scan do
         incr runs;
         match replay ?evict sut bwl ~sched:bspec ~crash:(Some k') with
         | Some r ->
           best := (bwl, bspec, Some k', r);
           raise Exit
         | None -> ()
       done
     with Exit -> ())
  | _ -> ());
  !best

(* The engine's replayable coordinates: system, workload, schedule and
   eviction adversary; the crash boundary is the failure's only cut.  The
   dirty lines that leaked in the failing run make the eviction exactly
   replayable together with its seed. *)
let fail_of ~sut ?evict ?(survivors = []) (wl, spec, crash, reason) =
  let evict_args, reason =
    match evict with
    | None -> ([], reason)
    | Some (fr, seed) ->
      ( [ ("--evict", Printf.sprintf "%g" fr); ("--evict-seed", string_of_int seed) ],
        Printf.sprintf "%s (surviving lines: %s)" reason
          (if survivors = [] then "none" else String.concat "," (List.map string_of_int survivors))
      )
  in
  {
    C.campaign = C.Engine;
    fault = sut.sut_fault;
    args =
      [
        ("--system", sut.sut_name);
        ("--workload", wl.wl_name);
        ("--threads", string_of_int wl.threads);
        ("--txs", string_of_int wl.txs_per_thread);
        ("--sched", sched_to_string spec);
      ]
      @ evict_args;
    cuts = C.cuts_of [ crash ];
    reason;
  }

let take n l =
  let rec go n = function x :: tl when n > 0 -> x :: go (n - 1) tl | _ -> [] in
  go n l

(* Bounded exhaustive DFS over the first [exhaustive_depth] scheduling
   decision points.  Every explored schedule runs to quiescence and then
   loses power, so the oracle additionally proves no committed transaction
   is lost under any of these interleavings. *)
let explore ~sut ~wl ~budget ~runs ~sites_total =
  let stack = ref [ [] ] in
  let count = ref 0 in
  let result = ref None in
  while !stack <> [] && !count < budget.exhaustive_runs && !result = None do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
      stack := rest;
      incr count;
      incr runs;
      let arr = Array.of_list prefix in
      let dlog = ref [] in
      let strategy =
        Sched.Choice
          (fun ~step ~candidates ->
            let c = if step < Array.length arr then arr.(step) else 0 in
            if step < budget.exhaustive_depth then dlog := (step, candidates, c) :: !dlog;
            c)
      in
      let o = run_once ~sut ~wl ~strategy ~crash:None () in
      sites_total := !sites_total + o.oc_sites;
      (match verify ~wl ~quiescent:true o with
      | Some r -> result := Some (wl, Prefix prefix, None, r)
      | None ->
        let taken = List.sort compare !dlog in
        let chosen = List.map (fun (_, _, c) -> c) taken in
        let plen = List.length prefix in
        List.iter
          (fun (step, candidates, _) ->
            if step >= plen then
              for c = candidates - 1 downto 1 do
                stack := (take step chosen @ [ c ]) :: !stack
              done)
          taken)
  done;
  !result

let check_system ?(budget = tier1_budget ()) ?(log = fun _ -> ()) ?evict sut wls =
  let runs = ref 0 in
  let sites_total = ref 0 in
  let failure = ref None in
  let note wl what = log (Printf.sprintf "%s/%s: %s" (sut_label sut) wl.wl_name what) in
  List.iter
    (fun wl ->
      if !failure = None then begin
        note wl
          (Printf.sprintf "crash sweep, default schedule (up to %d boundaries)"
             budget.crash_sites);
        (match
           first_failing ?evict ~sut ~wl ~spec:Default ~max_sites:budget.crash_sites
             ~sample:true ~runs ~sites_total ()
         with
        | Some (c, r) -> failure := Some (wl, Default, c, r)
        | None ->
          (try
             for seed = 1 to budget.sched_seeds do
               note wl (Printf.sprintf "crash sweep, random schedule seed %d" seed);
               match
                 first_failing ?evict ~sut ~wl ~spec:(Seed seed)
                   ~max_sites:budget.crash_sites_per_seed ~sample:true ~runs ~sites_total ()
               with
               | Some (c, r) ->
                 failure := Some (wl, Seed seed, c, r);
                 raise Exit
               | None -> ()
             done
           with Exit -> ());
          if !failure = None && evict = None then begin
            note wl
              (Printf.sprintf "exhaustive schedule exploration (%d runs, depth %d)"
                 budget.exhaustive_runs budget.exhaustive_depth);
            match explore ~sut ~wl ~budget ~runs ~sites_total with
            | Some (wl', spec, c, r) -> failure := Some (wl', spec, c, r)
            | None -> ()
          end)
      end)
    wls;
  match !failure with
  | None -> C.Pass { runs = !runs; boundaries = !sites_total; tallies = [] }
  | Some (wl, spec, crash, reason) ->
    note wl (Printf.sprintf "FAILED (%s); shrinking" reason);
    let bwl, bspec, bcrash, breason =
      shrink ?evict ~sut ~wl ~spec ~crash ~reason ~runs ~sites_total ()
    in
    (* Rerun the shrunk case once to record which dirty lines leaked: the
       failure one-liner then pins down the eviction exactly. *)
    let survivors =
      match evict with
      | None -> []
      | Some _ ->
        incr runs;
        (snd (run_and_verify ?evict ~sut ~wl:bwl ~spec:bspec ~crash:bcrash ())).oc_survivors
    in
    C.Fail (fail_of ~sut ?evict ~survivors (bwl, bspec, bcrash, breason))

(* ------------------------------------------------------------------ *)
(* Media-fault campaign                                               *)
(* ------------------------------------------------------------------ *)

type media_mode = Heap_rot | Mixed

let media_mode_to_string = function Heap_rot -> "heap" | Mixed -> "mixed"

let media_mode_of_string = function
  | "heap" -> Heap_rot
  | "mixed" -> Mixed
  | s -> invalid_arg ("Check.media_mode_of_string: unknown fault mix " ^ s)

(* Live state of the [counter] workload lives in bytes [0, 72) of the heap
   (the root counter plus 8 slots), so a flip there always corrupts
   meaningful data — the campaign's detection oracle is deterministic, not
   probabilistic.  Distinct (offset, bit) pairs keep two flips from
   cancelling out. *)
let live_bytes = 72

let inject_heap_rot nvm rng ~chosen ~descrs =
  let rec pick () =
    let off = Rng.int rng live_bytes and bit = Rng.int rng 8 in
    if Hashtbl.mem chosen (off, bit) then pick ()
    else begin
      Hashtbl.add chosen (off, bit) ();
      (off, bit)
    end
  in
  let off, bit = pick () in
  Nvm.inject_fault nvm (Nvm.Bit_rot { off; bit });
  descrs := Printf.sprintf "rot(heap:%d.%d)" off bit :: !descrs

(* Flip a payload bit of the FIRST sealed record of a ring, never the last:
   damage to the last record is indistinguishable from a torn tail and is
   (correctly) discarded without being counted, which would defeat the
   "detected or reported" oracle.  With fewer than two records the ring is
   left alone and heap rot is injected instead.  [Plog.attach_scan] on a
   valid header only reads, so this pre-scan does not disturb the device. *)
let inject_ring_rot cfg nvm rng ~chosen ~descrs =
  let r = Rng.int rng (Config.plog_regions cfg) in
  let base = Config.plog_base cfg r in
  let t, scan = Plog.attach_scan nvm ~base ~size:cfg.Config.plog_size in
  match scan.Plog.records with
  | first :: _ :: _ ->
    let plen = Bytes.length first.Plog.payload in
    let start = first.Plog.end_off - Plog.record_overhead - plen in
    let j = Rng.int rng (max 1 plen) in
    let off =
      base + Plog.header_size + ((start + 16 + j) mod Plog.data_capacity t)
    in
    let bit = Rng.int rng 8 in
    Nvm.inject_fault nvm (Nvm.Bit_rot { off; bit });
    descrs := Printf.sprintf "rot(plog%d:rec%d+%d.%d)" r first.Plog.seq j bit :: !descrs
  | _ -> inject_heap_rot nvm rng ~chosen ~descrs

(* Inject 1-3 seeded faults into the persisted image at the crash point.
   Poison is injected last so the ring pre-scans above never trip over a
   line poisoned by an earlier draw. *)
let inject_faults cfg nvm ~mode ~seed ~descrs =
  let rng = Rng.create (0x6d656469 lxor seed) in
  let chosen = Hashtbl.create 8 in
  let n = 1 + Rng.int rng 3 in
  let poisons = ref [] in
  for _ = 1 to n do
    match mode with
    | Heap_rot -> inject_heap_rot nvm rng ~chosen ~descrs
    | Mixed -> (
      match Rng.int rng 4 with
      | 0 -> inject_heap_rot nvm rng ~chosen ~descrs
      | 1 -> inject_ring_rot cfg nvm rng ~chosen ~descrs
      | 2 ->
        let line = Rng.int rng (Nvm.size nvm / Nvm.line_size nvm) in
        poisons := line :: !poisons;
        descrs := Printf.sprintf "poison(line:%d)" line :: !descrs
      | _ ->
        let line = Rng.int rng (cfg.Config.heap_size / Nvm.line_size nvm) in
        Nvm.inject_fault nvm (Nvm.Stuck_line { line });
        descrs := Printf.sprintf "stuck(line:%d)" line :: !descrs)
  done;
  List.iter (fun line -> Nvm.inject_fault nvm (Nvm.Poison { line })) !poisons;
  n

(* One campaign run: run the workload (optionally cutting power mid-way),
   inject seeded media faults into what survived, scrub, then recover.  The
   oracle is "never silently wrong": the recovered state must either verify
   like any crash run, or the damage must have been *reported* — by the
   scrub (non-clean report) or by recovery itself (corrupted records /
   quarantined lines).  Undetected corruption that changes visible state is
   the only way to fail. *)
let media_case ~fault ~mode ~seed ~crash ~runs ~boundaries ~injected =
  let cfg = dude_cfg ~combine:false ~fault in
  let wl = counter ~threads:3 ~txs:4 in
  let descrs = ref [] in
  let reported = ref false in
  let fresh () =
    let p, _t = Dude_ptm.Stm.ptm cfg in
    let nvm = match p.Ptm.nvm with Some n -> n | None -> assert false in
    {
      ptm = p;
      inst_nvm = nvm;
      recover =
        (fun () ->
          injected := !injected + inject_faults cfg nvm ~mode ~seed ~descrs;
          let sr = Scrub.scrub ~repair:true ~probe_stuck:true cfg nvm in
          if not (Scrub.clean sr) then reported := true;
          if sr.Scrub.ckpt = `Fatal then
            (* Both checkpoint slots destroyed: the instance is lost, but
               loudly — that counts as reported, never as silent. *)
            { rec_durable = Some 0; rec_peek = (fun _ -> 0L) }
          else begin
            let p2, _t2, report = Dude_ptm.Stm.attach_ptm cfg nvm in
            if report.Dudetm.corrupted_records > 0 || report.Dudetm.quarantined_lines > 0
            then reported := true;
            { rec_durable = Some report.Dudetm.durable; rec_peek = p2.Ptm.peek }
          end);
    }
  in
  let sut = { sut_name = "dude"; sut_fault = fault; sut_static = false; fresh } in
  incr runs;
  let o = run_once ~sut ~wl ~strategy:Sched.min_clock ~crash () in
  boundaries := !boundaries + o.oc_sites;
  match verify ~wl ~quiescent:false o with
  | Some reason when not !reported ->
    Some
      {
        C.campaign = C.Media;
        fault;
        args = [ ("--media-seed", string_of_int seed); ("--faults", media_mode_to_string mode) ];
        cuts = C.cuts_of [ crash ];
        reason =
          Printf.sprintf "%s (injected: %s)" reason (String.concat " " (List.rev !descrs));
      }
  | _ -> None

(* Exactly one case when [replay] names it; otherwise, per seed, heap rot
   and mixed faults at quiescence, then mixed faults at a seed-derived
   crash boundary. *)
let check_media ~fault ~seeds ~log ~replay =
  let runs = ref 0 and boundaries = ref 0 and injected = ref 0 in
  let case = media_case ~fault ~runs ~boundaries ~injected in
  let result =
    match replay with
    | Some (mode, seed, crash) -> case ~mode ~seed ~crash
    | None ->
      (* Boundary count under the campaign schedule, measured once, gives a
         deterministic seed-derived crash point for the mid-run cases. *)
      let sites = count_sites (dude ~fault ()) (counter ~threads:3 ~txs:4) ~sched:Default in
      let rec go s =
        if s > seeds then None
        else begin
          let k = 1 + (s * 7919 mod max 1 sites) in
          let cases =
            [
              ("heap rot at quiescence", Heap_rot, None);
              ("mixed faults at quiescence", Mixed, None);
              (Printf.sprintf "mixed faults at crash boundary %d" k, Mixed, Some k);
            ]
          in
          match
            List.find_map
              (fun (what, mode, crash) ->
                log (Printf.sprintf "media: seed %d, %s" s what);
                case ~mode ~seed:s ~crash)
              cases
          with
          | Some f -> Some f
          | None -> go (s + 1)
        end
      in
      go 1
  in
  match result with
  | Some f -> C.Fail f
  | None ->
    C.Pass { runs = !runs; boundaries = !boundaries; tallies = [ ("faults injected", !injected) ] }

(* ------------------------------------------------------------------ *)
(* Nested-crash recovery campaign                                     *)
(* ------------------------------------------------------------------ *)

type recovery_leg = Attach_leg | Scrub_leg

let leg_to_string = function Attach_leg -> "attach" | Scrub_leg -> "scrub"

let leg_of_string = function
  | "attach" -> Attach_leg
  | "scrub" -> Scrub_leg
  | s -> invalid_arg ("Check.leg_of_string: unknown recovery leg " ^ s)

type recovery_budget = {
  rec_seeds : int;
  rec_attach_sites : int;
  rec_scrub_sites : int;
  rec_deep_points : int;
  rec_deep_sites : int;
}

let quick_recovery_budget =
  { rec_seeds = 4; rec_attach_sites = 60; rec_scrub_sites = 32; rec_deep_points = 2; rec_deep_sites = 4 }

let smoke_recovery_budget =
  { rec_seeds = 1; rec_attach_sites = 16; rec_scrub_sites = 8; rec_deep_points = 1; rec_deep_sites = 2 }

let recovery_fail ~fault ~crash ~leg ?crash2 ?crash3 reason =
  {
    C.campaign = C.Recovery;
    fault;
    args = [ ("--leg", leg_to_string leg) ];
    cuts = C.cuts_of [ crash; crash2; crash3 ];
    reason;
  }

let recovery_workload () = counter ~threads:3 ~txs:4

(* Deterministically rebuild the crashed device image the recovery legs
   operate on: run the campaign workload under the default schedule, cut
   power at boundary [crash] (None: at quiescence), and hand the crashed
   device back *without* recovering it.  [attach] mutates the device, so
   every leg below starts from its own fresh image. *)
let crashed_image ~cfg ~wl ~crash =
  let nvm_ref = ref None in
  let fresh () =
    let p, _t = Dude_ptm.Stm.ptm cfg in
    let nvm = match p.Ptm.nvm with Some n -> n | None -> assert false in
    nvm_ref := Some nvm;
    {
      ptm = p;
      inst_nvm = nvm;
      recover = (fun () -> { rec_durable = None; rec_peek = (fun _ -> 0L) });
    }
  in
  let sut =
    { sut_name = "dude-recovery"; sut_fault = cfg.Config.fault; sut_static = false; fresh }
  in
  let o = run_once ~sut ~wl ~strategy:Sched.min_clock ~crash () in
  (Option.get !nvm_ref, o)

(* Run one recovery step with the persist hook armed.  [crash = Some k]
   cuts power at the [k]-th persist boundary *inside the step* (the device
   then loses its volatile state, exactly like a mid-run power cut);
   [None] just counts boundaries.  Recovery runs outside [Sched.run], so
   only the NVM hook is involved.  [Ok boundaries seen], or [Error] when
   the step raised. *)
let recovery_step nvm ~crash ~who f =
  let cut = C.cutter ?at:crash [ nvm ] in
  let ended = C.cut_run cut f in
  (match ended with C.Cut -> Nvm.crash nvm | _ -> ());
  match C.error ~who ended with Some e -> Error e | None -> Ok cut.seen

let run_leg cfg nvm = function
  | Attach_leg -> ignore (Dude_ptm.Stm.attach_ptm cfg nvm)
  | Scrub_leg -> ignore (Scrub.scrub ~repair:true ~probe_stuck:true cfg nvm)

let report_to_string (r : Dudetm.recovery_report) =
  Printf.sprintf
    "{durable=%d replayed=%d discarded_txs=%d discarded_records=%d corrupted=%d quarantined=%d}"
    r.Dudetm.durable r.Dudetm.replayed_txs r.Dudetm.discarded_txs r.Dudetm.discarded_records
    r.Dudetm.corrupted_records r.Dudetm.quarantined_lines

(* One nested-crash scenario on a fresh deterministic image: cut the
   workload at [crash], cut the named recovery leg at boundary [crash2],
   optionally cut the *recovery of that crashed recovery* at [crash3], and
   require the final uninterrupted attach to converge to [baseline] — the
   verdict an uninterrupted recovery of the same image produces — and to
   recover state that passes the normal crash oracle. *)
let recovery_case ~fault ~crash ~leg ~crash2 ~crash3 ~baseline ~runs =
  let cfg = dude_cfg ~combine:false ~fault in
  let wl = recovery_workload () in
  incr runs;
  let nvm, o = crashed_image ~cfg ~wl ~crash in
  let fail reason = Some (recovery_fail ~fault ~crash ~leg ?crash2 ?crash3 reason) in
  match o.oc_deadlock with
  | Some m -> fail m
  | None -> (
    let cuts =
      (match crash2 with None -> [] | Some k -> [ (leg, k) ])
      @ match crash3 with None -> [] | Some k -> [ (Attach_leg, k) ]
    in
    let cut_err =
      List.find_map
        (fun (l, k) ->
          let who = Printf.sprintf "%s cut at boundary %d" (leg_to_string l) k in
          Result.fold ~ok:(fun _ -> None) ~error:Option.some
            (recovery_step nvm ~crash:(Some k) ~who (fun () -> run_leg cfg nvm l)))
        cuts
    in
    match cut_err with
    | Some reason -> fail reason
    | None -> (
      match Dude_ptm.Stm.attach_ptm cfg nvm with
      | exception e -> fail ("final attach raised " ^ Printexc.to_string e)
      | p2, _t2, report ->
        if report <> baseline then
          fail
            (Printf.sprintf "recovery verdict diverged: interrupted %s, uninterrupted %s"
               (report_to_string report) (report_to_string baseline))
        else
          let o =
            {
              o with
              oc_recov = { rec_durable = Some report.Dudetm.durable; rec_peek = p2.Ptm.peek };
            }
          in
          Option.bind (verify ~wl ~quiescent:(crash = None) o) fail))

(* Baseline verdict and per-leg boundary count for one crash point, each
   measured on its own fresh image. *)
let recovery_baseline ~fault ~crash ~runs =
  let cfg = dude_cfg ~combine:false ~fault in
  let wl = recovery_workload () in
  incr runs;
  let nvm, _ = crashed_image ~cfg ~wl ~crash in
  let baseline = ref None in
  recovery_step nvm ~crash:None ~who:"uninterrupted attach" (fun () ->
      let _, _, report = Dude_ptm.Stm.attach_ptm cfg nvm in
      baseline := Some report)
  |> Result.map (fun b -> (Option.get !baseline, b))

let count_leg_boundaries ~fault ~crash ~leg ~pre ~runs =
  let cfg = dude_cfg ~combine:false ~fault in
  let wl = recovery_workload () in
  incr runs;
  let nvm, _ = crashed_image ~cfg ~wl ~crash in
  let pre_step =
    match pre with
    | None -> Ok 0
    | Some (l, k) ->
      recovery_step nvm ~crash:(Some k) ~who:(leg_to_string l) (fun () -> run_leg cfg nvm l)
  in
  Result.bind pre_step (fun _ ->
      recovery_step nvm ~crash:None ~who:(leg_to_string leg) (fun () -> run_leg cfg nvm leg))

(* The scrub leg has far more boundaries than the attach leg (the
   stuck-line probe sweep touches every heap line), so it is sampled; the
   first boundaries are always included because they cover the probes of
   the workload's live lines — the exact window the
   [Skip_recovery_journal] mutant corrupts. *)
let scrub_sites ~s ~n =
  List.sort_uniq compare (C.sample_sites ~s ~n @ C.sample_sites ~s:(min s 8) ~n:8)

exception Recovery_failed of C.failure

(* Exactly one nested-crash case when [leg] names it; otherwise, for each
   first power cut (quiescence plus seed-derived boundaries) and each leg,
   cut the leg at its sampled boundaries, then — two deep — cut the
   recovery of a few of those crashed recoveries. *)
let check_recovery ~fault ~budget ~log ~leg ~cuts =
  let runs = ref 0 in
  let boundaries = ref 0 in
  let check = function Some f -> raise (Recovery_failed f) | None -> () in
  let ok ~crash ~leg ?crash2 = function
    | Ok v -> v
    | Error reason -> raise (Recovery_failed (recovery_fail ~fault ~crash ~leg ?crash2 reason))
  in
  let sweep_point crash =
    let baseline, attach_b = ok ~crash ~leg:Attach_leg (recovery_baseline ~fault ~crash ~runs) in
    List.iter
      (fun leg ->
        let b =
          if leg = Attach_leg then attach_b
          else ok ~crash ~leg (count_leg_boundaries ~fault ~crash ~leg ~pre:None ~runs)
        in
        boundaries := !boundaries + b;
        let k2s =
          match leg with
          | Attach_leg -> C.sample_sites ~s:b ~n:budget.rec_attach_sites
          | Scrub_leg -> scrub_sites ~s:b ~n:budget.rec_scrub_sites
        in
        log
          (Printf.sprintf "recovery: power cut at %s, %s leg: %d of %d boundaries"
             (match crash with None -> "quiescence" | Some k -> Printf.sprintf "boundary %d" k)
             (leg_to_string leg) (List.length k2s) b);
        List.iter
          (fun k2 ->
            check (recovery_case ~fault ~crash ~leg ~crash2:(Some k2) ~crash3:None ~baseline ~runs))
          k2s;
        (* Two deep: crash the recovery of a crashed recovery. *)
        List.iter
          (fun k2 ->
            let b2 =
              ok ~crash ~leg ~crash2:k2
                (count_leg_boundaries ~fault ~crash ~leg:Attach_leg ~pre:(Some (leg, k2)) ~runs)
            in
            List.iter
              (fun k3 ->
                check
                  (recovery_case ~fault ~crash ~leg ~crash2:(Some k2) ~crash3:(Some k3) ~baseline
                     ~runs))
              (C.sample_sites ~s:b2 ~n:budget.rec_deep_sites))
          (C.sample_sites ~s:(List.length k2s) ~n:budget.rec_deep_points
          |> List.map (fun i -> List.nth k2s (i - 1))))
      [ Attach_leg; Scrub_leg ]
  in
  match
    match leg with
    | Some leg ->
      let crash = C.cut_at cuts 0 in
      let baseline, b = ok ~crash ~leg (recovery_baseline ~fault ~crash ~runs) in
      boundaries := b;
      check
        (recovery_case ~fault ~crash ~leg ~crash2:(C.cut_at cuts 1) ~crash3:(C.cut_at cuts 2)
           ~baseline ~runs)
    | None ->
      let sites = count_sites (dude ~fault ()) (recovery_workload ()) ~sched:Default in
      incr runs;
      List.iter sweep_point
        (None :: List.init budget.rec_seeds (fun i -> Some (1 + ((i + 1) * 7919 mod max 1 sites))))
  with
  | () -> C.Pass { runs = !runs; boundaries = !boundaries; tallies = [] }
  | exception Recovery_failed f -> C.Fail f

(* ------------------------------------------------------------------ *)
(* Daemon fault-injection campaign                                    *)
(* ------------------------------------------------------------------ *)

(* Transient Persist/Reproduce worker failures must be invisible: with the
   supervisor restarting crashed daemons from their persistent positions,
   every run must still satisfy the ordinary crash oracle (and a quiescent
   run must still drain completely) — only the restart counters may move.
   The sweep is vacuous if no daemon ever restarted, so that fails too,
   and its replay line is the sweep itself.  [only_seed] replays one
   case. *)
let check_daemons ~seeds ~rate ~log ~only_seed ~cuts =
  let runs = ref 0 and boundaries = ref 0 in
  let faults = ref 0 in
  let restarts = ref 0 in
  let fail ?seed ?crash reason =
    let seed_arg =
      Option.fold seed ~none:[] ~some:(fun s -> [ ("--daemon-seed", string_of_int s) ])
    in
    Some
      {
        C.campaign = C.Daemons;
        fault = Config.No_fault;
        args = seed_arg @ [ ("--fault-rate", Printf.sprintf "%g" rate) ];
        cuts = C.cuts_of [ crash ];
        reason;
      }
  in
  let one ~seed ~crash =
    let cfg =
      {
        (dude_cfg ~combine:false ~fault:Config.No_fault) with
        Config.daemon_fault_rate = rate;
        seed = 7 + seed;
      }
    in
    let counters = ref [] in
    let fresh () =
      let p, _t = Dude_ptm.Stm.ptm cfg in
      let nvm = match p.Ptm.nvm with Some n -> n | None -> assert false in
      {
        ptm = p;
        inst_nvm = nvm;
        recover =
          (fun () ->
            counters := p.Ptm.counters ();
            let p2, _t2, report = Dude_ptm.Stm.attach_ptm cfg nvm in
            { rec_durable = Some report.Dudetm.durable; rec_peek = p2.Ptm.peek });
      }
    in
    let sut = { sut_name = "dude"; sut_fault = Config.No_fault; sut_static = false; fresh } in
    let wl = recovery_workload () in
    incr runs;
    let o = run_once ~sut ~wl ~strategy:Sched.min_clock ~crash () in
    let count k = match List.assoc_opt k !counters with Some v -> v | None -> 0 in
    faults := !faults + count "daemon_faults";
    restarts := !restarts + count "daemon_restarts";
    boundaries := !boundaries + o.oc_sites;
    (Option.bind (verify ~wl ~quiescent:(crash = None) o) (fail ~seed ?crash), o.oc_sites)
  in
  let result =
    match only_seed with
    | Some seed -> fst (one ~seed ~crash:(C.cut_at cuts 0))
    | None ->
      let rec go s =
        if s > seeds then
          if !restarts = 0 then fail "vacuous sweep: no daemon restart was ever exercised"
          else None
        else begin
          log (Printf.sprintf "daemons: seed %d, faults at rate %g, run to quiescence" s rate);
          match one ~seed:s ~crash:None with
          | (Some _ as f), _ -> f
          | None, sites -> (
            let k = 1 + (s * 7919 mod max 1 sites) in
            log (Printf.sprintf "daemons: seed %d, power cut at boundary %d" s k);
            match fst (one ~seed:s ~crash:(Some k)) with Some _ as f -> f | None -> go (s + 1))
        end
      in
      go 1
  in
  match result with
  | Some f -> C.Fail f
  | None ->
    C.Pass
      {
        runs = !runs;
        boundaries = !boundaries;
        tallies = [ ("faults injected", !faults); ("restarts", !restarts) ];
      }

(* ------------------------------------------------------------------ *)
(* Sharded cross-commit campaign                                      *)
(* ------------------------------------------------------------------ *)

module Shard = Dudetm_shard.Shard.Make (Dudetm_tm.Tinystm)

(* Word layout inside every shard's root block (mirrors test_shard.ml):
   0       balance — cross-shard transfers preserve the global sum
   8       single-shard local counter
   16+8*p  pairwise stamp: both sides of a transfer write the same stamp *)
let shb_balance = 0

let shb_local = 8

let shb_pair p = 16 + (8 * p)

let shb_initial = 1_000L

(* The all-or-nothing + watermark oracle over a drained or recovered
   instance.  Both sides of every transfer wrote the same pairwise stamp,
   so the sides must agree; every transfer preserved the sum over shards
   whose seeding transaction (tid 1) is durable; and nothing the effective
   watermark acknowledged before the cut may be missing afterwards. *)
let shard_oracle ~nshards ~acked_frontier ~acked_eff sh =
  let peek s off = Shard.Engine.heap_read_u64 (Shard.engine sh s) off in
  let bad = ref None in
  for a = 0 to nshards - 1 do
    for b = a + 1 to nshards - 1 do
      let sa = peek a (shb_pair b) and sb = peek b (shb_pair a) in
      if sa <> sb && !bad = None then
        bad :=
          Some
            (Printf.sprintf "partial cross-shard tx: pair stamp %d<->%d is %Ld vs %Ld" a b sa
               sb)
    done
  done;
  let sum = ref 0L and seeded = ref 0 in
  for s = 0 to nshards - 1 do
    sum := Int64.add !sum (peek s shb_balance);
    if Shard.Engine.durable_id (Shard.engine sh s) >= 1 then incr seeded
  done;
  let want = Int64.mul shb_initial (Int64.of_int !seeded) in
  if !sum <> want && !bad = None then
    bad :=
      Some
        (Printf.sprintf "balance sum %Ld, model says %Ld for %d durable seeds" !sum want
           !seeded);
  if Shard.global_frontier sh < acked_frontier && !bad = None then
    bad :=
      Some
        (Printf.sprintf "acked cross tx lost: recovered frontier %d < acknowledged %d"
           (Shard.global_frontier sh) acked_frontier);
  for s = 0 to nshards - 1 do
    let d = Shard.Engine.durable_id (Shard.engine sh s) in
    if d < acked_eff.(s) && !bad = None then
      bad :=
        Some
          (Printf.sprintf "acked tx lost on shard %d: durable %d < acknowledged %d" s d
             acked_eff.(s))
  done;
  !bad

(* Two persist policies under the same transfers: [plain] runs them
   sequentially over per-thread rings; [combined] runs them on three
   concurrent workers over one combined ring ([group_size] 2), so groups
   mix fragments with their neighbours unless the combiner seals every
   fragment alone. *)
type shard_scenario = Splain | Scombined

let shard_scenarios = [ (Splain, "plain"); (Scombined, "combined") ]

let shard_scenario_of_string s =
  match List.find_opt (fun (_, n) -> n = s) shard_scenarios with
  | Some (sc, _) -> sc
  | None -> invalid_arg ("Check.shard_scenario_of_string: unknown scenario " ^ s)

let shard_workers = 3

(* Transfer [k]: bloat [b]'s next flush record first, then move 5 from
   [a] to [b], stamping the pair on both sides.  Persist publishes a
   record's durable IDs at a single fence, so queue depth alone creates no
   skew — record size does: [b]'s fence lands well after [a]'s tiny
   fragment record is durable (and applicable), opening the window the
   replay gate must cover. *)
let shard_transfer sh ~nshards ~thread k =
  let a = k mod nshards and b = (k + 1) mod nshards in
  ignore
    (Shard.atomically sh ~thread ~shards:[ b ] (fun tx ->
         for i = 0 to 63 do
           Shard.write tx ~shard:b (1024 + (8 * i)) (Int64.of_int (k + i))
         done;
         Shard.write tx ~shard:b shb_local (Int64.add (Shard.read tx ~shard:b shb_local) 1L)));
  ignore
    (Shard.atomically sh ~thread ~shards:[ a; b ] (fun tx ->
         let ba = Shard.read tx ~shard:a shb_balance in
         let bb = Shard.read tx ~shard:b shb_balance in
         Shard.write tx ~shard:a shb_balance (Int64.sub ba 5L);
         Shard.write tx ~shard:b shb_balance (Int64.add bb 5L);
         Shard.write tx ~shard:a (shb_pair b) (Int64.of_int k);
         Shard.write tx ~shard:b (shb_pair a) (Int64.of_int k)))

(* One run: [txs] transfers (per worker, when concurrent) plus local
   bumps, power cut at persist boundary [at] counted across every shard's
   device (none: clean stop).  The vector watermark is sampled at each
   boundary — exactly what had been acknowledged when the power went
   out. *)
let shard_run ~fault ~nshards ~txs ~scenario cuts =
  let cfg = dude_cfg ~combine:(scenario = Scombined) ~fault in
  let sh = Shard.create ~nshards cfg in
  let acked_frontier = ref 0 in
  let acked_eff = Array.make nshards 0 in
  let sample () =
    let f = Shard.global_frontier sh in
    if f > !acked_frontier then acked_frontier := f;
    Array.iteri (fun s e -> if e > acked_eff.(s) then acked_eff.(s) <- e)
      (Shard.effective_vector sh)
  in
  let cut = C.cutter ~sample ?at:(C.cut_at cuts 0) (List.init nshards (Shard.nvm sh)) in
  let ended =
    C.cut_run ~arm_now:false cut (fun () ->
        Sched.run (fun () ->
            Shard.start sh;
            for s = 0 to nshards - 1 do
              ignore
                (Shard.atomically sh ~thread:0 ~shards:[ s ] (fun tx ->
                     Shard.write tx ~shard:s shb_balance shb_initial))
            done;
            C.arm cut;
            (match scenario with
            | Splain ->
              for k = 1 to txs do
                shard_transfer sh ~nshards ~thread:(k mod 3) k
              done
            | Scombined ->
              let done_workers = ref 0 in
              for w = 0 to shard_workers - 1 do
                ignore
                  (Sched.spawn (Printf.sprintf "shard-worker-%d" w) (fun () ->
                       for j = 1 to txs do
                         shard_transfer sh ~nshards ~thread:w ((w * txs) + j)
                       done;
                       incr done_workers))
              done;
              Sched.wait_until ~label:"shard workers done" (fun () ->
                  !done_workers = shard_workers));
            C.disarm cut;
            Shard.stop sh))
  in
  let oracle = shard_oracle ~nshards ~acked_frontier:!acked_frontier ~acked_eff in
  let verdict =
    match ended with
    | C.Completed _ -> oracle sh
    | C.Cut -> (
      List.iter Nvm.crash cut.devices;
      match Shard.attach ~nshards (Shard.config sh) (Array.of_list cut.devices) with
      | sh2, _report -> oracle sh2
      | exception e -> Some ("recovery raised " ^ Printexc.to_string e))
    | _ -> C.error ~who:"engine" ended
  in
  { C.verdict; seen = [ cut.seen ]; tallies = [] }

(* ------------------------------------------------------------------ *)
(* Batch-boundary crash campaign (pipelined group commit)             *)
(* ------------------------------------------------------------------ *)

(* The batch campaign drives the *combined* persist path — the combiner /
   flusher pipeline — with small groups and a short deadline, so a run of
   a few dozen transactions crosses many sealed-batch boundaries, and cuts
   power at every persist boundary the devices see.  Because the combiner
   seals batch [k+1] while the flusher's record for batch [k] is still in
   flight, the sweep necessarily lands cuts mid-pipeline: after a seal but
   before the matching NVM append.  The [Skip_batch_seal] mutant publishes
   durability at seal time, so exactly those cuts expose it.

   The two-deep leg re-crashes a recovery: cut at boundary [k1], attach,
   keep committing on the recovered engine, cut again at boundary [k2] of
   the second life, attach again.  A recovery that mends the torn batch by
   writing state it never re-fences would survive the first cut and lose
   data at the second. *)

(* Small groups, a short deadline and a tiny adaptive bound: every few
   transactions seal a batch, so deadline-, size- and drain-triggered
   batches all occur within one short run. *)
let batch_cfg ~fault =
  {
    (dude_cfg ~combine:true ~fault) with
    Config.group_size = 4;
    batch_min_entries = 2;
    batch_max_entries = 16;
    batch_deadline = 512;
  }

(* One life of the engine: run [txs] transactions per thread of the
   [counter] workload on [p], cutting power at the [crash]-th persist
   boundary.  Samples the durable watermark at every boundary (exactly
   what was acknowledged when the power went out) and checks it never
   regresses.  Returns (verdict-so-far, sites, acked, crashed, committed). *)
let batch_leg ~(wl : workload) ~txs ~crash (p : Ptm.t) nvm =
  let acked = ref 0 in
  let err = ref None in
  let sample () =
    let d = p.Ptm.durable_id () in
    if d < !acked && !err = None then
      err := Some (Printf.sprintf "durable id regressed from %d to %d" !acked d);
    if d > !acked then acked := d
  in
  let cut = C.cutter ~sample ?at:crash [ nvm ] in
  let committed = ref 0 in
  let ended =
    C.cut_run cut (fun () ->
        Sched.run (fun () ->
            p.Ptm.start ();
            let done_workers = ref 0 in
            for th = 0 to wl.threads - 1 do
              ignore
                (Sched.spawn (Printf.sprintf "batch-worker-%d" th) (fun () ->
                     for _ = 1 to txs do
                       match p.Ptm.atomically ~thread:th wl.tx_body with
                       | Some ((), tid) -> if tid > 0 then incr committed
                       | None -> ()
                     done;
                     incr done_workers))
            done;
            Sched.wait_until ~label:"batch workers done" (fun () ->
                !done_workers = wl.threads);
            p.Ptm.drain ();
            p.Ptm.stop ()))
  in
  if !err = None then err := C.error ~who:"engine" ended;
  let d = p.Ptm.durable_id () in
  if d > !acked then acked := d;
  (!err, cut.seen, !acked, ended = C.Cut, !committed)

(* Durable-prefix oracle after an attach: the recovered counter is a
   commit count [k]; nothing acknowledged may be missing, recovery's own
   durable report must match the data image, and every slot must hold the
   last write the first [k] transactions made to it ([slot_check]). *)
let batch_oracle ~(wl : workload) ~acked ~quiescent ~committed ~durable
    ~(peek : int -> int64) =
  let k = Int64.to_int (peek wl.wl_root) in
  if k < 0 then Some (Printf.sprintf "recovered counter is negative: %d" k)
  else if k < acked then
    Some
      (Printf.sprintf
         "durability lost: durable id %d was acknowledged, recovery found only %d" acked k)
  else
    match durable with
    | Some d when d <> k ->
      Some
        (Printf.sprintf "recovery reports durable id %d but the data image shows %d" d k)
    | _ ->
      if quiescent && k <> committed then
        Some
          (Printf.sprintf "quiescent stop lost transactions: committed %d, recovered %d"
             committed k)
      else wl.check_state ~peek ~k

(* One full batch-campaign run: first life cut at the first of [cuts],
   attach, then a second life cut at the second, attach again.  No cuts is
   the clean-engine control (runs to quiescence, then loses power).
   Boundaries are seen per life. *)
let batch_run ~fault ~txs cuts =
  let cfg = batch_cfg ~fault in
  let wl = counter ~threads:cfg.Config.nthreads ~txs in
  let p, _t = Dude_ptm.Stm.ptm cfg in
  let nvm = match p.Ptm.nvm with Some n -> n | None -> assert false in
  let case ?(sites2 = 0) verdict sites1 = { C.verdict; seen = [ sites1; sites2 ]; tallies = [] } in
  let err1, sites1, acked1, crashed1, committed1 =
    batch_leg ~wl ~txs ~crash:(C.cut_at cuts 0) p nvm
  in
  match err1 with
  | Some _ -> case err1 sites1
  | None -> (
    Nvm.crash nvm;
    match Dude_ptm.Stm.attach_ptm cfg nvm with
    | exception e -> case (Some ("recovery raised " ^ Printexc.to_string e)) sites1
    | p2, _t2, report -> (
      let verdict1 =
        batch_oracle ~wl ~acked:acked1 ~quiescent:(not crashed1) ~committed:committed1
          ~durable:(Some report.Dudetm.durable) ~peek:p2.Ptm.peek
      in
      if verdict1 <> None || not crashed1 then case verdict1 sites1
      else
        (* Second life: the recovered engine must itself survive a cut. *)
        let err2, sites2, acked2, crashed2, committed2 =
          batch_leg ~wl ~txs ~crash:(C.cut_at cuts 1) p2 nvm
        in
        match err2 with
        | Some _ -> case err2 sites1 ~sites2
        | None -> (
          Nvm.crash nvm;
          match Dude_ptm.Stm.attach_ptm cfg nvm with
          | exception e ->
            case (Some ("re-recovery raised " ^ Printexc.to_string e)) sites1 ~sites2
          | p3, _t3, report2 ->
            case
              (batch_oracle ~wl ~acked:acked2 ~quiescent:(not crashed2)
                 ~committed:(report.Dudetm.durable + committed2)
                 ~durable:(Some report2.Dudetm.durable) ~peek:p3.Ptm.peek)
              sites1 ~sites2)))

(* ------------------------------------------------------------------ *)
(* Replicated-durability failover campaign                            *)
(* ------------------------------------------------------------------ *)

(* The replica campaign runs a full Replica cluster (one primary plus K
   followers behind simulated links), cuts power at sampled persist
   boundaries of the *primary's* device, and fails over.  Because the
   ship hook hangs off the Persist daemon, those boundaries land cuts at
   every interesting replication point: record persisted but frame not
   yet sent, frames in flight, acks in flight, mid-retransmit (faulty
   links), and mid-catch-up (healed partition).  The promoted state must
   cover everything the quorum watermark ever acknowledged and be exactly
   the model state for the recovered commit count.

   The [Skip_quorum_gate] mutant acknowledges at the primary-local seal;
   cuts with frames still in flight leave every replica short of the
   "acked" watermark, which promotion exposes as lost durability. *)

module Rep = Dudetm_replica.Replica.Make (Dudetm_tm.Tinystm)
module Link = Dudetm_replica.Link

type replica_scenario = Rclean | Rfaulty | Rpartition

let replica_scenario_to_string = function
  | Rclean -> "clean"
  | Rfaulty -> "faulty"
  | Rpartition -> "partition"

let replica_scenario_of_string = function
  | "clean" -> Rclean
  | "faulty" -> Rfaulty
  | "partition" -> Rpartition
  | s -> invalid_arg ("Check.replica_scenario_of_string: unknown scenario " ^ s)

(* Counter workload at the engine level (same model as [counter]): tx
   number i stamps slot (i mod 8) and writes the root to i, so the whole
   durable state is a function of the recovered counter alone. *)
let replica_slots = 8

let replica_stamp i = [ i mod replica_slots ]

let replica_tx tx =
  let c1 = 1 + Int64.to_int (Rep.Engine.read tx 0) in
  List.iter (fun j -> Rep.Engine.write tx (slot_addr j) (Int64.of_int c1)) (replica_stamp c1);
  Rep.Engine.write tx 0 (Int64.of_int c1)

let replica_faults =
  {
    Link.drop = 0.05;
    duplicate = 0.05;
    reorder = 0.05;
    delay = 0.03;
    delay_cycles = 30_000;
    corrupt = 0.03;
  }

(* One full campaign run: drive the cluster, optionally cut power at a
   primary persist boundary, fail over, check the oracle. *)
let replica_run ~fault ~nreplicas ~txs ~scenario cuts =
  let cfg = { (batch_cfg ~fault) with Config.plog_size = 1 lsl 14 } in
  let link =
    {
      Link.default_config with
      Link.faults = (match scenario with Rfaulty -> replica_faults | _ -> Link.no_faults);
      seed = cfg.Config.seed;
    }
  in
  let rcfg = { (Rep.default_config ~nreplicas ()) with Rep.link } in
  let c = Rep.create ~rcfg cfg in
  let prim = Rep.primary c in
  let prim_nvm = Rep.Engine.nvm prim in
  let last_d = ref 0 in
  let err = ref None in
  let sample () =
    let d = Rep.Engine.durable_id prim in
    if d < !last_d && !err = None then
      err := Some (Printf.sprintf "durable id regressed from %d to %d" !last_d d);
    if d > !last_d then last_d := d
  in
  let cut = C.cutter ~sample ?at:(C.cut_at cuts 0) [ prim_nvm ] in
  let committed = ref 0 in
  let drained_quorum = ref false in
  let ended =
    C.cut_run cut (fun () ->
        Sched.run (fun () ->
            Rep.start c;
            (match scenario with
            | Rpartition ->
              (* Partition the last replica mid-run, heal it later: crash
                 points before the heal exercise quorum-minus-one, points
                 after it exercise retransmit-driven catch-up. *)
              ignore
                (Sched.spawn ~daemon:true "partitioner" (fun () ->
                     try
                       Sched.advance 40_000;
                       Rep.set_partitioned c (nreplicas - 1) true;
                       Sched.advance 400_000;
                       Rep.set_partitioned c (nreplicas - 1) false
                     with Sched.Killed -> ()))
            | _ -> ());
            let done_workers = ref 0 in
            for th = 0 to cfg.Config.nthreads - 1 do
              ignore
                (Sched.spawn (Printf.sprintf "replica-worker-%d" th) (fun () ->
                     for i = 1 to txs do
                       match Rep.Engine.atomically prim ~thread:th replica_tx with
                       | Some (_, tid) when tid > 0 ->
                         incr committed;
                         (* Exercise the bounded quorum wait on a sample of
                            commits; the rest stay decoupled. *)
                         if i mod 4 = 0 then ignore (Rep.wait_acked c tid)
                       | _ -> ()
                     done;
                     incr done_workers))
            done;
            Sched.wait_until ~label:"replica workers done" (fun () ->
                !done_workers = cfg.Config.nthreads);
            (match Rep.drain c with
            | Rep.Quorum -> drained_quorum := true
            | Rep.Degraded_quorum _ -> ());
            Rep.sync_followers c;
            Rep.stop c))
  in
  if !err = None then err := C.error ~who:"cluster" ended;
  (* The watermark is monotone, so its value now is its value at the cut:
     exactly what was ever acknowledged as quorum-durable. *)
  let acked = Rep.acked c in
  let verdict =
    match !err with
    | Some _ -> !err
    | None -> (
      match Rep.promote c with
      | exception e -> Some ("promotion raised " ^ Printexc.to_string e)
      | eng, prom ->
        let peek a = Rep.Engine.heap_read_u64 eng a in
        let k = Int64.to_int (peek 0) in
        let durable = prom.Rep.report.Dudetm.durable in
        (* With K = 1 the quorum is the primary alone (q = ⌈2/2⌉ = 1): acks
           promise primary-local durability only, as without replication, so
           failover makes no no-loss promise and only the prefix-consistency
           checks apply.  Any larger cluster needs at least one replica ack,
           and then no quorum-acked transaction may be lost. *)
        let quorum_loss_guarded = Rep.quorum_needed ~nreplicas > 1 in
          if quorum_loss_guarded && acked > prom.Rep.quorum_prefix then
            Some
              (Printf.sprintf
                 "acked watermark %d passed the quorum prefix %d (candidates %s)" acked
                 prom.Rep.quorum_prefix
                 (String.concat ","
                    (Array.to_list (Array.map string_of_int prom.Rep.candidates))))
          else if quorum_loss_guarded && durable < acked then
            Some
              (Printf.sprintf
                 "durability lost: watermark %d was quorum-acked, promotion recovered only %d"
                 acked durable)
          else if k <> durable then
            Some
              (Printf.sprintf "promotion reports durable id %d but the data image shows %d"
                 durable k)
          else if ended <> C.Cut && !drained_quorum && k <> !committed then
            Some
              (Printf.sprintf "quiescent stop lost transactions: committed %d, promoted %d"
                 !committed k)
          else slot_check ~slots:replica_slots ~stamp:replica_stamp ~peek ~k)
  in
  { C.verdict; seen = [ cut.seen ]; tallies = [] }

(* ------------------------------------------------------------------ *)
(* Live-migration (resharding) crash campaign                         *)
(* ------------------------------------------------------------------ *)

(* The migrate campaign drives a live 4->8 resharding: 8 engines, an
   8-bucket partition initially owned by shards 0-3 (two buckets each),
   and four migrations handing every odd bucket to a fresh shard 4-7 —
   each under application traffic that keeps landing increments inside
   and outside the moving range, so cuts fall in the double-write window,
   between the flip's three seals, and mid-cleanup.  Power is cut at
   persist boundaries counted across all eight devices (the handoff
   journal's own seals are boundaries too).

   The per-key model tracks a commit count and, at every boundary, how
   many of each key's commits were acknowledged under the sampled vector
   watermark (local acks against the per-shard effective IDs, window
   double-writes against the global frontier).  After recovery the value
   at the key's descriptor-routed owner must sit in [acked, committed];
   after the completed schedule it must equal the commit count exactly,
   with every moved range's source slots recycled to zero.

   The two-deep leg re-arms the hooks before the first re-attach, so the
   second cut can land inside recovery itself — between the roll-forward
   seals of a half-flipped handoff — and the third attach must still
   converge.  The [Skip_handoff_seal] mutant flips volatile routing
   without sealing the handoff record or the new descriptor; any cut
   after the first flip recovers the stale descriptor, routes the moved
   range back to the source, and loses the destination's acknowledged
   writes — which the oracle reports. *)

module Mig = Dudetm_shard.Migrate.Make (Dudetm_tm.Tinystm)
module Handoff = Dudetm_shard.Handoff
module Partition = Dudetm_workloads.Partition

let migrate_nshards = 8

let migrate_nkeys = 16

(* 8 buckets over keys [0, 16): bucket [b] covers keys {2b, 2b+1}.  The
   schedule hands every odd bucket to a fresh shard. *)
let mg_initial_owners = [| 0; 0; 1; 1; 2; 2; 3; 3 |]

let mg_final_owners = [| 0; 4; 1; 5; 2; 6; 3; 7 |]

let mg_moves = List.init 4 (fun m -> (m, 4 + m, (2 * m) + 1))

let mg_slot k = 8 * k

type mg_ack = Mg_local of int * int | Mg_cross of int

type mg_model = {
  mg_committed : int array;
  mg_acked : int array;  (* running max of the satisfied ack prefix *)
  mg_pending : mg_ack Queue.t array;  (* per key, in commit order *)
  mutable mg_fmax : int;
  mg_emax : int array;
}

let mg_model () =
  {
    mg_committed = Array.make migrate_nkeys 0;
    mg_acked = Array.make migrate_nkeys 0;
    mg_pending = Array.init migrate_nkeys (fun _ -> Queue.create ());
    mg_fmax = 0;
    mg_emax = Array.make migrate_nshards 0;
  }

(* Unacknowledged commits are void once the power is cut: their tids/gtids
   can be reissued by the next life, so leaving them queued would let a
   second-life watermark satisfy a first-life ack. *)
let mg_void_pending model = Array.iter Queue.clear model.mg_pending

(* One increment through the router; records the commit and its ack. *)
let mg_bump mig model ~thread k =
  match Mig.apply mig ~thread ~key:k (fun v -> Int64.add v 1L) with
  | Some (_, ack) ->
    model.mg_committed.(k) <- model.mg_committed.(k) + 1;
    (match ack with
    | Mig.Sh.Ack_local { shard; tid } -> Queue.push (Mg_local (shard, tid)) model.mg_pending.(k)
    | Mig.Sh.Ack_cross { gtid } -> Queue.push (Mg_cross gtid) model.mg_pending.(k)
    | Mig.Sh.Ack_read_only -> ())
  | None -> ()

(* The value the descriptor-routed owner holds for every key must cover
   everything acknowledged and never exceed the commit count; [final]
   additionally demands the completed-resharding fixpoint: final owners,
   exact counts, and every non-owner slot recycled to zero. *)
let mg_oracle ~final sh mig model =
  let peek s k = Mig.Sh.Engine.heap_read_u64 (Mig.Sh.engine sh s) (mg_slot k) in
  let bad = ref None in
  let report r = if !bad = None then bad := Some r in
  for k = 0 to migrate_nkeys - 1 do
    let o = Mig.owner mig k in
    let v = Int64.to_int (peek o k) in
    if v < model.mg_acked.(k) then
      report
        (Printf.sprintf "acked write lost: key %d on owner shard %d is %d, %d were acked"
           k o v model.mg_acked.(k));
    if v > model.mg_committed.(k) then
      report
        (Printf.sprintf "phantom write: key %d on owner shard %d is %d, only %d committed"
           k o v model.mg_committed.(k))
  done;
  if final then begin
    let owners = Partition.owners (Mig.partition mig) in
    if owners <> mg_final_owners then
      report
        (Printf.sprintf "resharding did not converge: owners %s"
           (String.concat ";" (Array.to_list (Array.map string_of_int owners))));
    for k = 0 to migrate_nkeys - 1 do
      let o = Mig.owner mig k in
      let v = Int64.to_int (peek o k) in
      if v <> model.mg_committed.(k) then
        report
          (Printf.sprintf "quiescent stop lost writes: key %d is %d, committed %d" k v
             model.mg_committed.(k));
      for s = 0 to migrate_nshards - 1 do
        if s <> o && peek s k <> 0L then
          report
            (Printf.sprintf
               "unreachable extent: shard %d still holds %Ld for key %d (owner %d)" s
               (peek s k) k o)
      done
    done
  end;
  !bad

(* A crash discards every commit past the durable cut, so once the
   mid-recovery oracle has bounded the recovered values the model rebases
   on them: they are the baseline the completion life builds on. *)
let mg_rebase sh mig model =
  for k = 0 to migrate_nkeys - 1 do
    let o = Mig.owner mig k in
    let v = Int64.to_int (Mig.Sh.Engine.heap_read_u64 (Mig.Sh.engine sh o) (mg_slot k)) in
    model.mg_committed.(k) <- v;
    if model.mg_acked.(k) > v then model.mg_acked.(k) <- v
  done

(* The deterministic resharding schedule under traffic: per move, a full
   round of increments, then chunked copy interleaved with double-writes
   in the moving range and traffic outside it, the flip, a post-flip
   commit routed to the new owner, and chunked cleanup under traffic. *)
let mg_schedule mig model =
  let round () =
    for k = 0 to migrate_nkeys - 1 do
      mg_bump mig model ~thread:(k mod 3) k
    done
  in
  List.iter
    (fun (src, dst, b) ->
      round ();
      Mig.begin_migration mig ~src ~dst ~blo:b ~bhi:(b + 1);
      let kin = 2 * b and kout = ((2 * b) + 5) mod migrate_nkeys in
      let fin = ref false in
      while not !fin do
        fin := Mig.copy_step ~chunk:1 mig ~thread:0;
        mg_bump mig model ~thread:1 kin;
        mg_bump mig model ~thread:2 kout
      done;
      Mig.flip mig;
      mg_bump mig model ~thread:0 ((2 * b) + 1);
      let fin = ref false in
      while not !fin do
        fin := Mig.cleanup_step ~chunk:2 mig ~thread:0;
        mg_bump mig model ~thread:1 kout
      done)
    mg_moves;
  round ()

(* After a re-attach: finish any pending cleanup, re-run every move the
   descriptor still shows unfinished, then one more round to prove the
   recovered instance routes and commits. *)
let mg_complete mig model =
  (match Mig.migrating mig with
  | Some (_, Handoff.Cleanup) ->
    while not (Mig.cleanup_step ~chunk:4 mig ~thread:0) do
      ()
    done
  | Some _ -> ()
  | None -> ());
  let owners = Partition.owners (Mig.partition mig) in
  List.iter
    (fun (src, dst, b) ->
      if owners.(b) = src then Mig.migrate ~chunk:1 mig ~thread:0 ~src ~dst ~blo:b ~bhi:(b + 1))
    mg_moves;
  for k = 0 to migrate_nkeys - 1 do
    mg_bump mig model ~thread:(k mod 3) k
  done

(* One full campaign run: first life (cut at the first of [cuts], counted
   across all devices), attach with hooks re-armed (so the second cut can
   land inside recovery itself), completion life, attach after any second cut,
   completion again, final oracle.  Boundaries of the second count start
   at the first re-attach. *)
let migrate_run ~fault cuts =
  let cfg = dude_cfg ~combine:false ~fault in
  let part =
    Partition.buckets ~nshards:migrate_nshards ~lo:0L ~hi:(Int64.of_int migrate_nkeys)
      ~owners:mg_initial_owners
  in
  let sh = Mig.Sh.create ~nshards:migrate_nshards cfg in
  let mig = Mig.create sh ~part ~nkeys:migrate_nkeys ~slot_of:mg_slot in
  let model = mg_model () in
  let cur_sh = ref sh in
  let sample () =
    let shh = !cur_sh in
    let f = Mig.Sh.global_frontier shh in
    if f > model.mg_fmax then model.mg_fmax <- f;
    Array.iteri
      (fun s e -> if e > model.mg_emax.(s) then model.mg_emax.(s) <- e)
      (Mig.Sh.effective_vector shh);
    for k = 0 to migrate_nkeys - 1 do
      let q = model.mg_pending.(k) in
      let go = ref true in
      while !go && not (Queue.is_empty q) do
        let sat =
          match Queue.peek q with
          | Mg_local (s, tid) -> model.mg_emax.(s) >= tid
          | Mg_cross g -> model.mg_fmax >= g
        in
        if sat then begin
          ignore (Queue.pop q);
          model.mg_acked.(k) <- model.mg_acked.(k) + 1
        end
        else go := false
      done
    done
  in
  let nvms = Array.init migrate_nshards (Mig.Sh.nvm sh) in
  let cut = C.cutter ~sample ?at:(C.cut_at cuts 0) (Array.to_list nvms) in
  let life1 =
    C.cut_run ~arm_now:false cut (fun () ->
        Sched.run (fun () ->
            Mig.Sh.start sh;
            C.arm cut;
            mg_schedule mig model;
            C.disarm cut;
            Mig.Sh.stop sh))
  in
  let sites1 = cut.seen in
  let attach_once () =
    let sh2, _rep = Mig.Sh.attach ~nshards:migrate_nshards cfg nvms in
    cur_sh := sh2;
    let mig2, _resume = Mig.attach sh2 ~nkeys:migrate_nkeys ~slot_of:mg_slot in
    (sh2, mig2)
  in
  let complete sh2 mig2 () =
    Sched.run (fun () ->
        Mig.Sh.start sh2;
        mg_complete mig2 model;
        C.disarm cut;
        Mig.Sh.stop sh2)
  in
  (* The recovered values must lie within the model's bounds; the model
     then rebases on them before the completion life [finish]. *)
  let recovered sh2 mig2 finish =
    match mg_oracle ~final:false sh2 mig2 model with
    | Some r -> Some r
    | None ->
      mg_rebase sh2 mig2 model;
      finish ()
  in
  let final_life () =
    (* No further cuts: attach once more and finish the schedule. *)
    mg_void_pending model;
    Array.iter Nvm.crash nvms;
    match attach_once () with
    | exception e -> Some ("re-recovery raised " ^ Printexc.to_string e)
    | sh3, mig3 ->
      recovered sh3 mig3 (fun () ->
          match C.cut_run ~arm_now:false cut (complete sh3 mig3) with
          | C.Completed _ -> mg_oracle ~final:true sh3 mig3 model
          | ended -> C.error ~who:"re-recovered engine" ended)
  in
  let verdict =
    match life1 with
    | C.Completed _ -> mg_oracle ~final:true sh mig model
    | C.Cut -> (
      mg_void_pending model;
      Array.iter Nvm.crash nvms;
      cut.seen <- 0;
      cut.at <- C.cut_at cuts 1;
      (* Attach with hooks armed: the second cut may land between the
         handoff journal's own recovery seals. *)
      match C.cut_run cut attach_once with
      | C.Cut -> final_life ()
      | C.Completed (sh2, mig2) ->
        recovered sh2 mig2 (fun () ->
            match C.cut_run cut (complete sh2 mig2) with
            | C.Completed _ -> mg_oracle ~final:true sh2 mig2 model
            | C.Cut -> final_life ()
            | ended -> C.error ~who:"recovered engine" ended)
      | ended -> C.error ~who:"recovery" ended)
    | ended -> C.error ~who:"engine" ended
  in
  { C.verdict; seen = [ sites1; (if life1 = C.Cut then cut.seen else 0) ]; tallies = [] }

(* ------------------------------------------------------------------ *)
(* Snapshot-read crash campaign                                       *)
(* ------------------------------------------------------------------ *)

(* The snapshot campaign runs pair-writer transactions — every commit
   writes the {e same} value to both slots of one pair — against a
   concurrent read-only snapshot reader alternating volatile and
   durable-only mode, and cuts power at sampled persist boundaries while
   the durable reads run.  Two oracles:

   - {b consistency}: every completed snapshot read-set satisfies
     [va = vb].  A reader spanning a writer's commit must either retry
     (validated extension) or see none of its writes; the
     [Skip_snapshot_validate] mutant slides the epoch forward without
     revalidating and returns one old and one new half of a pair.
   - {b durable prefix}: a durable-mode read of value [v] proves that [v]
     transactions on that pair were durable when the read completed, so
     after the cut recovery must find at least [v] on that pair — and
     never more than were committed. *)

let snapshot_npairs = 4

let sn_slot_a p = 8 + (16 * p)

let sn_slot_b p = sn_slot_a p + 8

(* One full run on the pipelined-combine config (short deadline: durable
   pin waits stay bounded, and a short run still crosses many persist
   boundaries): writers on threads [0 .. n-2], the snapshot reader on the
   last thread, power cut at a persist boundary, attach, oracle; completed
   snapshot reads are tallied. *)
let snapshot_run ~fault ~txs cuts =
  let cfg = batch_cfg ~fault in
  let nthreads = cfg.Config.nthreads in
  let nwriters = nthreads - 1 in
  let p, _t = Dude_ptm.Stm.ptm cfg in
  let nvm = match p.Ptm.nvm with Some n -> n | None -> assert false in
  let last_d = ref 0 in
  let err = ref None in
  let report r = if !err = None then err := Some r in
  let sample () =
    let d = p.Ptm.durable_id () in
    if d < !last_d then report (Printf.sprintf "durable id regressed from %d to %d" !last_d d);
    if d > !last_d then last_d := d
  in
  let cut = C.cutter ~sample ?at:(C.cut_at cuts 0) [ nvm ] in
  let committed = Array.make snapshot_npairs 0 in
  (* Per pair: the largest value a completed durable-mode read returned. *)
  let durable_seen = Array.make snapshot_npairs 0 in
  let reads = ref 0 in
  let ended =
    C.cut_run cut (fun () ->
        Sched.run (fun () ->
            p.Ptm.start ();
            let writers_done = ref 0 in
            for th = 0 to nwriters - 1 do
              ignore
                (Sched.spawn (Printf.sprintf "snapshot-writer-%d" th) (fun () ->
                     for i = 1 to txs do
                       let pair = (th + (nwriters * i)) mod snapshot_npairs in
                       match
                         p.Ptm.atomically ~thread:th (fun tx ->
                             let v = Int64.add (tx.Ptm.read (sn_slot_a pair)) 1L in
                             tx.Ptm.write (sn_slot_a pair) v;
                             tx.Ptm.write (sn_slot_b pair) v)
                       with
                       | Some ((), _tid) -> committed.(pair) <- committed.(pair) + 1
                       | None -> ()
                     done;
                     incr writers_done))
            done;
            let reader_done = ref false in
            ignore
              (Sched.spawn "snapshot-reader" (fun () ->
                   let durable = ref false in
                   while !writers_done < nwriters do
                     durable := not !durable;
                     (* All [a] halves first, then all [b] halves: a writer
                        committing pair [q] anywhere in between bumps both
                        stripes past the epoch, so the [b] read triggers an
                        extension — which must revalidate the recorded [a]
                        (and restart), or tear. *)
                     match
                       p.Ptm.atomically_ro ~durable:!durable ~thread:(nthreads - 1)
                         (fun tx ->
                           let va =
                             Array.init snapshot_npairs (fun q -> tx.Ptm.read (sn_slot_a q))
                           in
                           let vb =
                             Array.init snapshot_npairs (fun q -> tx.Ptm.read (sn_slot_b q))
                           in
                           (va, vb))
                     with
                     | Some ((va, vb), epoch) ->
                       incr reads;
                       for q = 0 to snapshot_npairs - 1 do
                         if va.(q) <> vb.(q) then
                           report
                             (Printf.sprintf
                                "torn snapshot read-set: pair %d is %Ld/%Ld at epoch %d \
                                 (%s mode)"
                                q va.(q) vb.(q) epoch
                                (if !durable then "durable" else "volatile"));
                         if !durable && Int64.to_int va.(q) > durable_seen.(q) then
                           durable_seen.(q) <- Int64.to_int va.(q)
                       done
                     | None -> ()
                   done;
                   reader_done := true));
            Sched.wait_until ~label:"snapshot workers done" (fun () ->
                !writers_done = nwriters && !reader_done);
            p.Ptm.drain ();
            p.Ptm.stop ()))
  in
  Option.iter report (C.error ~who:"engine" ended);
  let verdict =
    match !err with
    | Some _ -> !err
    | None -> (
      Nvm.crash nvm;
      match Dude_ptm.Stm.attach_ptm cfg nvm with
      | exception e -> Some ("recovery raised " ^ Printexc.to_string e)
      | p2, _t2, _report ->
        let verdict = ref None in
        let fail r = if !verdict = None then verdict := Some r in
        for pr = 0 to snapshot_npairs - 1 do
          let ra = Int64.to_int (p2.Ptm.peek (sn_slot_a pr)) in
          let rb = Int64.to_int (p2.Ptm.peek (sn_slot_b pr)) in
          if ra <> rb then fail (Printf.sprintf "recovered pair %d is torn: %d/%d" pr ra rb);
          if ra < durable_seen.(pr) then
            fail
              (Printf.sprintf
                 "durable-mode snapshot read lost: pair %d read %d, recovery found %d" pr
                 durable_seen.(pr) ra);
          if ra > committed.(pr) then
            fail
              (Printf.sprintf "phantom writes: pair %d recovered %d, only %d committed" pr ra
                 committed.(pr));
          if ended <> C.Cut && ra <> committed.(pr) then
            fail
              (Printf.sprintf "quiescent stop lost writes: pair %d is %d, committed %d" pr ra
                 committed.(pr))
        done;
        !verdict)
  in
  { C.verdict; seen = [ cut.seen ]; tallies = [ ("snapshot reads", !reads) ] }


(* ------------------------------------------------------------------ *)
(* Serving front-end crash campaign                                   *)
(* ------------------------------------------------------------------ *)

(* The serve campaign drives the full front end — bounded queue,
   admission gate, DRR dispatch, durable-watermark acker — with one
   closed-loop client session per pair and cuts power mid-burst at
   sampled persist boundaries across both shard devices.  Each write of
   value [v] to pair [p] stamps both slots of the pair, values are dense
   increments, and the client records [acked.(p) = v] only after its
   reply arrives.  The acked-prefix oracle after re-attach:

   - {b no half-applied request}: both slots of every pair agree
     (a torn pair means a request was applied in part);
   - {b no acked request lost}: the recovered value covers [acked.(p)] —
     a reply is a durability promise.  The [Skip_admission_gate] mutant
     releases write replies at commit instead of the durable watermark,
     so a cut in the commit-to-persist window fails exactly this check;
   - {b no phantom}: the recovered value never exceeds the largest value
     the client ever submitted;
   - {b quiescent exactness}: with no cut, every pair recovers to
     exactly [txs]. *)

module Srv = Dudetm_serve.Serve.Make (Dudetm_tm.Tinystm)
module Serve = Dudetm_serve.Serve

let serve_nshards = 2

let serve_ntenants = 2

let serve_npairs = 4

(* Pair [p] lives on shard [p mod serve_nshards]; its two slots sit past
   the root word at a stride that keeps pairs on one shard apart. *)
let sv_shard_of p = p mod serve_nshards

let sv_slot_a p = 8 + (16 * (p / serve_nshards))

let sv_slot_b p = sv_slot_a p + 8

(* Small queue and tight hysteresis so the campaign exercises shedding
   and gate transitions, not just the happy path. *)
let serve_scfg =
  {
    Serve.queue_capacity = 8;
    trip_depth = 6;
    untrip_depth = 2;
    drr_quantum = 2;
    slots_per_session = 2;
    workers_per_shard = 2;
  }

let serve_app =
  {
    Srv.shard_of = (fun key -> sv_shard_of (Int64.to_int key));
    write =
      (fun tx ~shard ~key ~payload ->
        let p = Int64.to_int key in
        Srv.Sh.write tx ~shard (sv_slot_a p) payload;
        Srv.Sh.write tx ~shard (sv_slot_b p) payload);
    read =
      (fun tx ~shard ~key ->
        let p = Int64.to_int key in
        let a = Srv.Sh.read tx ~shard (sv_slot_a p) in
        let b = Srv.Sh.read tx ~shard (sv_slot_b p) in
        if Int64.equal a b then a else -1L);
  }

(* One full run: the front end over [serve_nshards] fresh devices, one
   closed-loop client per pair submitting dense increments (retrying the
   same value after a shed or abort), a power cut at a persist boundary
   counted across all devices, re-attach, oracle; acked and shed requests
   are tallied. *)
let serve_run ~fault ~txs cuts =
  let cfg =
    Dudetm_serve.Serve_load.engine_cfg ~fault
      ~workers:serve_scfg.Serve.workers_per_shard ()
  in
  let sh = Srv.Sh.create ~nshards:serve_nshards cfg in
  let nvms = Array.init serve_nshards (fun s -> Srv.Sh.nvm sh s) in
  let err = ref None in
  let report r = if !err = None then err := Some r in
  let cut = C.cutter ?at:(C.cut_at cuts 0) (Array.to_list nvms) in
  let srv = Srv.create ~scfg:serve_scfg ~app:serve_app ~ntenants:serve_ntenants sh in
  let acked = Array.make serve_npairs 0 in
  let submitted = Array.make serve_npairs 0 in
  let shed = ref 0 in
  let ended =
    C.cut_run cut (fun () ->
        Sched.run (fun () ->
            Srv.start srv;
            let clients_done = ref 0 in
            for p = 0 to serve_npairs - 1 do
              ignore
                (Sched.spawn
                   (Printf.sprintf "serve-client-%d" p)
                   (fun () ->
                     let tenant = p mod serve_ntenants in
                     let key = Int64.of_int p in
                     let wd =
                       Srv.make_desc ~tenant ~session:p
                         (Serve.Write { key; payload = 0L })
                     in
                     let rd =
                       Srv.make_desc ~tenant ~session:p (Serve.Read { key })
                     in
                     for v = 1 to txs do
                       submitted.(p) <- v;
                       let payload = Int64.of_int v in
                       let rec attempt () =
                         Srv.set_op wd (Serve.Write { key; payload });
                         if not (Srv.submit srv wd) then begin
                           incr shed;
                           Sched.advance 2_000;
                           attempt ()
                         end
                         else
                           match Srv.await wd with
                           | Serve.R_executed _ -> acked.(p) <- v
                           | Serve.R_aborted -> attempt ()
                           | _ -> report "write reply of unexpected shape"
                       in
                       attempt ();
                       (* Opportunistic snapshot read: the pair must never
                          be torn in flight either. *)
                       if v land 3 = 0 then begin
                         Srv.set_op rd (Serve.Read { key });
                         if Srv.submit srv rd then
                           match Srv.await rd with
                           | Serve.R_value r when Int64.equal r (-1L) ->
                             report
                               (Printf.sprintf "torn in-flight read of pair %d" p)
                           | _ -> ()
                       end
                     done;
                     incr clients_done))
            done;
            Sched.wait_until ~label:"serve clients done" (fun () ->
                !clients_done = serve_npairs);
            Srv.stop srv))
  in
  Option.iter report (C.error ~who:"engine" ended);
  let verdict =
    match !err with
    | Some _ -> !err
    | None -> (
      Array.iter Nvm.crash nvms;
      match Srv.Sh.attach ~nshards:serve_nshards cfg nvms with
      | exception e -> Some ("recovery raised " ^ Printexc.to_string e)
      | sh2, _recovery ->
        let verdict = ref None in
        let fail r = if !verdict = None then verdict := Some r in
        for p = 0 to serve_npairs - 1 do
          let e = Srv.Sh.engine sh2 (sv_shard_of p) in
          let ra = Int64.to_int (Srv.Engine.heap_read_u64 e (sv_slot_a p)) in
          let rb = Int64.to_int (Srv.Engine.heap_read_u64 e (sv_slot_b p)) in
          if ra <> rb then
            fail
              (Printf.sprintf "half-applied request: pair %d recovered %d/%d" p ra rb);
          if ra < acked.(p) then
            fail
              (Printf.sprintf
                 "acked request lost: pair %d acked %d, recovery found %d" p acked.(p)
                 ra);
          if ra > submitted.(p) then
            fail
              (Printf.sprintf "phantom request: pair %d recovered %d, submitted %d" p
                 ra submitted.(p));
          if ended <> C.Cut && ra <> txs then
            fail
              (Printf.sprintf "quiescent stop lost requests: pair %d is %d, expected %d"
                 p ra txs)
        done;
        !verdict)
  in
  {
    C.verdict;
    seen = [ cut.seen ];
    tallies = [ ("acked requests", Array.fold_left ( + ) 0 acked); ("shed", !shed) ];
  }


(* ------------------------------------------------------------------ *)
(* One entry point                                                    *)
(* ------------------------------------------------------------------ *)

(* The flags each campaign accepts, with their defaults ("" = unset), and
   how many cuts deep a replay may go. *)
let spec = function
  | C.Engine ->
    ( [
        ("--system", "dude");
        ("--workload", "all");
        ("--threads", "3");
        ("--txs", "2");
        ("--sched", "");
        ("--evict", "0");
        ("--evict-seed", "1");
        ("--crash-budget", "0");
        ("--sched-seeds", "-1");
      ],
      1 )
  | C.Media ->
    ([ ("--system", "dude"); ("--media-seed", ""); ("--faults", ""); ("--media-seeds", "6") ], 1)
  | C.Recovery -> ([ ("--leg", ""); ("--rec-seeds", "0") ], 3)
  | C.Daemons -> ([ ("--daemon-seed", ""); ("--fault-rate", "0.25") ], 1)
  | C.Shards -> ([ ("--shard-count", "3"); ("--txs", "10"); ("--scenario", "") ], 1)
  | C.Batch -> ([ ("--txs", "12") ], 2)
  | C.Replica -> ([ ("--replicas", "3"); ("--txs", "10"); ("--scenario", "") ], 1)
  | C.Migrate -> ([], 2)
  | C.Snapshot -> ([ ("--txs", "12") ], 1)
  | C.Serve -> ([ ("--txs", "10") ], 1)

let run ?(fault = Config.No_fault) ?(level = C.env_level ()) ?(log = ignore) ?(args = [])
    ?(cuts = []) campaign =
  let declared, depth = spec campaign in
  let flag = "--" ^ C.name campaign in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k declared) then
        invalid_arg (Printf.sprintf "%s is not a %s flag" k flag))
    args;
  if List.length cuts > depth then
    invalid_arg (Printf.sprintf "%s is not a %s flag" (List.nth C.cut_flags depth) flag);
  let str k = List.assoc k (args @ declared) in
  let opt k = match str k with "" -> None | v -> Some v in
  let num of_string k =
    match of_string (str k) with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "%s expects a number, got %S" k (str k))
  in
  let int = num int_of_string_opt and float = num float_of_string_opt in
  let int_opt k = Option.map (fun _ -> int k) (opt k) in
  let sites = 60 * C.scale level in
  (* A layer campaign's coordinates are its declared flags. *)
  let scenario ?(sites = sites) ?two_deep ?(args = List.map (fun (k, _) -> (k, str k)) declared)
      run =
    { C.campaign; fault; args; sites; two_deep; run }
  in
  let sweep scenarios =
    if cuts = [] then C.sweep ~log scenarios else C.replay (List.hd scenarios) cuts
  in
  match campaign with
  | C.Engine -> (
    let sut = sut_of_name ~fault (str "--system") in
    let threads = int "--threads" and txs = int "--txs" in
    let wls =
      match str "--workload" with
      | "all" -> workloads_for sut ~threads ~txs
      | w -> [ workload_of_name ~threads ~txs w ]
    in
    let evict =
      if float "--evict" > 0.0 then Some (float "--evict", int "--evict-seed") else None
    in
    match opt "--sched" with
    | None when cuts = [] ->
      let b = engine_budget level in
      let crash_sites = int "--crash-budget" and sched_seeds = int "--sched-seeds" in
      let budget =
        {
          b with
          crash_sites = (if crash_sites > 0 then crash_sites else b.crash_sites);
          sched_seeds = (if sched_seeds >= 0 then sched_seeds else b.sched_seeds);
        }
      in
      check_system ~budget ~log ?evict sut wls
    | sched ->
      let spec = Option.fold sched ~none:Default ~some:sched_of_string in
      let crash = C.cut_at cuts 0 in
      let outcomes =
        List.map (fun wl -> (wl, run_and_verify ?evict ~sut ~wl ~spec ~crash ())) wls
      in
      match List.find_opt (fun (_, (err, _)) -> err <> None) outcomes with
      | Some (wl, (Some reason, o)) ->
        C.Fail (fail_of ~sut ?evict ~survivors:o.oc_survivors (wl, spec, crash, reason))
      | _ ->
        C.Pass
          {
            runs = List.length wls;
            boundaries = List.fold_left (fun n (_, (_, o)) -> n + o.oc_sites) 0 outcomes;
            tallies = [];
          })
  | C.Media ->
    if str "--system" <> "dude" then invalid_arg "--media runs on --system dude only";
    let replay =
      match (opt "--faults", int_opt "--media-seed") with
      | Some mode, Some seed -> Some (media_mode_of_string mode, seed, C.cut_at cuts 0)
      | None, None when cuts = [] -> None
      | _ -> invalid_arg "--media replays one case from --media-seed, --faults and --crash-at"
    in
    check_media ~fault ~seeds:(int "--media-seeds") ~log ~replay
  | C.Recovery ->
    let b = if level = C.Quick then smoke_recovery_budget else quick_recovery_budget in
    let budget = if int "--rec-seeds" > 0 then { b with rec_seeds = int "--rec-seeds" } else b in
    let leg = Option.map leg_of_string (opt "--leg") in
    if leg = None && cuts <> [] then invalid_arg "--recovery replays one case from --leg";
    check_recovery ~fault ~budget ~log ~leg ~cuts
  | C.Daemons ->
    let only_seed = int_opt "--daemon-seed" in
    if only_seed = None && cuts <> [] then
      invalid_arg "--daemons replays one case from --daemon-seed";
    check_daemons
      ~seeds:(if level = C.Quick then 2 else 4)
      ~rate:(float "--fault-rate") ~log ~only_seed ~cuts
  | C.Shards ->
    let nshards = int "--shard-count" in
    if nshards < 2 then invalid_arg "--shards needs --shard-count 2 or more";
    let scenarios =
      match opt "--scenario" with
      | Some sc -> [ shard_scenario_of_string sc ]
      | None when cuts = [] -> List.map fst shard_scenarios
      | None -> invalid_arg "--shards replays one cut from --scenario and --crash-at"
    in
    (* Unlike --replica, every scenario sweeps the full site budget. *)
    sweep
      (List.map
         (fun sc ->
           let name = List.assoc sc shard_scenarios in
           let args =
             List.map (fun (k, _) -> (k, if k = "--scenario" then name else str k)) declared
           in
           scenario ~args (shard_run ~fault ~nshards ~txs:(int "--txs") ~scenario:sc))
         scenarios)
  | C.Batch -> sweep [ scenario ~two_deep:15 (batch_run ~fault ~txs:(int "--txs")) ]
  | C.Replica ->
    let nreplicas = int "--replicas" and txs = int "--txs" in
    let scenarios =
      match opt "--scenario" with
      | Some sc -> [ replica_scenario_of_string sc ]
      | None when cuts = [] -> [ Rclean; Rfaulty; Rpartition ]
      | None -> invalid_arg "--replica replays one primary kill from --scenario and --crash-at"
    in
    (* The site budget is split across the link scenarios. *)
    let sites = max 4 (sites / List.length scenarios) in
    sweep
      (List.map
         (fun sc ->
           let args =
             [
               ("--replicas", str "--replicas");
               ("--txs", str "--txs");
               ("--scenario", replica_scenario_to_string sc);
             ]
           in
           scenario ~sites ~args (replica_run ~fault ~nreplicas ~txs ~scenario:sc))
         scenarios)
  | C.Migrate -> sweep [ scenario ~two_deep:20 (migrate_run ~fault) ]
  | C.Snapshot -> sweep [ scenario (snapshot_run ~fault ~txs:(int "--txs")) ]
  | C.Serve -> sweep [ scenario (serve_run ~fault ~txs:(int "--txs")) ]
