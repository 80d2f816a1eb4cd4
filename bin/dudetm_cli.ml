(* Command-line driver: run any benchmark workload on any evaluated system
   with custom parameters, or run randomized crash-recovery torture.

     dune exec bin/dudetm_cli.exe -- run --workload hashtable --system dude
     dune exec bin/dudetm_cli.exe -- run -w tpcc-tree -s mnemosyne -n 2000 --threads 8
     dune exec bin/dudetm_cli.exe -- torture --rounds 100
     dune exec bin/dudetm_cli.exe -- layout *)

open Cmdliner
module H = Dudetm_harness.Harness
module Config = Dudetm_core.Config
module Nvm = Dudetm_nvm.Nvm
module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module W = Dudetm_workloads
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

(* ------------------------------- run ---------------------------------- *)

let workload_of_string = function
  | "kv" -> Ok (H.kv_bench ())
  | "kv-tree" -> Ok (H.kv_bench ~storage:W.Kv.Tree ())
  | "hashtable" -> Ok (H.hashtable_bench ())
  | "bptree" -> Ok (H.bptree_bench ())
  | "tatp-hash" -> Ok (H.tatp_bench ~storage:W.Kv.Hash ())
  | "tatp-tree" -> Ok (H.tatp_bench ~storage:W.Kv.Tree ())
  | "tpcc-hash" -> Ok (H.tpcc_bench ~storage:W.Kv.Hash ())
  | "tpcc-tree" -> Ok (H.tpcc_bench ~storage:W.Kv.Tree ())
  | "tpcc-mixed" -> Ok (H.tpcc_bench ~storage:W.Kv.Tree ~mixed:true ())
  | s ->
    Error
      (`Msg
        (Printf.sprintf
           "unknown workload %S (try kv, kv-tree, hashtable, bptree, tatp-hash, tatp-tree, tpcc-hash, tpcc-tree, tpcc-mixed)"
           s))

let system_of_string = function
  | "dude" -> Ok H.Dude
  | "dude-inf" -> Ok H.Dude_inf
  | "dude-sync" -> Ok H.Dude_sync
  | "volatile" -> Ok H.Volatile
  | "mnemosyne" -> Ok H.Mnemosyne
  | "nvml" -> Ok H.Nvml
  | s ->
    Error
      (`Msg
        (Printf.sprintf
           "unknown system %S (try dude, dude-inf, dude-sync, volatile, mnemosyne, nvml)" s))

let workload_conv = Arg.conv (workload_of_string, fun ppf b -> Fmt.string ppf b.H.bname)

let system_conv = Arg.conv (system_of_string, fun ppf s -> Fmt.string ppf (H.system_name s))

let run_cmd =
  let workload =
    Arg.(
      required
      & opt (some workload_conv) None
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Benchmark workload to run.")
  in
  let system =
    Arg.(
      value & opt system_conv H.Dude
      & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc:"Durable-transaction system.")
  in
  let ntxs =
    Arg.(value & opt int 0 & info [ "n"; "txs" ] ~doc:"Transactions to run (0 = default).")
  in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~doc:"Perform threads.") in
  let bandwidth =
    Arg.(value & opt float 1.0 & info [ "bandwidth" ] ~doc:"NVM write bandwidth, GB/s.")
  in
  let latency =
    Arg.(value & opt int 1000 & info [ "latency" ] ~doc:"Persist latency, cycles.")
  in
  let counters =
    Arg.(value & flag & info [ "counters" ] ~doc:"Print all system counters afterwards.")
  in
  let run workload system ntxs threads bandwidth latency counters =
    if system = H.Nvml && not workload.H.static_ok then
      `Error (false, "NVML only supports the hash-based (static) workloads")
    else begin
      let bench = if ntxs > 0 then { workload with H.ntxs } else workload in
      let ptm = H.make_system ~nthreads:threads ~latency ~bandwidth system in
      let r = H.run_bench ptm bench in
      Printf.printf "%s on %s: %d transactions, %d threads, %.1f GB/s, %d-cycle persists\n"
        bench.H.bname ptm.Dudetm_baselines.Ptm_intf.name r.H.ntxs_run threads bandwidth latency;
      Printf.printf "  throughput:       %s\n" (H.pp_ktps r.H.ktps);
      Printf.printf "  cycles per tx:    %.0f (wall, all threads)\n" r.H.cycles_per_tx;
      Printf.printf "  writes per tx:    %.1f\n"
        (float_of_int r.H.writes /. float_of_int (max 1 r.H.ntxs_run));
      Printf.printf "  NVM write bytes:  %d (%.1f per tx)\n" r.H.nvm_bytes
        (float_of_int r.H.nvm_bytes /. float_of_int (max 1 r.H.ntxs_run));
      if counters then begin
        print_endline "  counters:";
        List.iter (fun (k, v) -> Printf.printf "    %-28s %d\n" k v) r.H.counters
      end;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload on one system and report throughput.")
    Term.(ret (const run $ workload $ system $ ntxs $ threads $ bandwidth $ latency $ counters))

(* ------------------------------- trace --------------------------------- *)

module Trace = Dudetm_trace.Trace

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let trace_cmd =
  let workload =
    Arg.(
      value
      & opt workload_conv (H.kv_bench ())
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload to profile (default kv).")
  in
  let system =
    Arg.(
      value & opt system_conv H.Dude
      & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc:"Durable-transaction system.")
  in
  let ntxs =
    Arg.(value & opt int 0 & info [ "n"; "txs" ] ~doc:"Transactions to run (0 = default).")
  in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~doc:"Perform threads.") in
  let bandwidth =
    Arg.(value & opt float 1.0 & info [ "bandwidth" ] ~doc:"NVM write bandwidth, GB/s.")
  in
  let latency =
    Arg.(value & opt int 1000 & info [ "latency" ] ~doc:"Persist latency, cycles.")
  in
  let ring =
    Arg.(
      value & opt int 65536
      & info [ "ring" ] ~doc:"Trace ring capacity, events (oldest are dropped on wrap).")
  in
  let export =
    Arg.(
      value
      & opt (enum [ ("none", `None); ("chrome", `Chrome); ("summary", `Summary) ]) `None
      & info [ "export" ] ~docv:"FORMAT"
          ~doc:
            "Write the trace to a file: $(b,chrome) for Chrome trace_event JSON \
             (chrome://tracing, Perfetto), $(b,summary) for the machine-readable \
             per-phase profile.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Output file for --export (default dudetm_trace.json / dudetm_summary.json).")
  in
  let run workload system ntxs threads bandwidth latency ring export out =
    if system = H.Nvml && not workload.H.static_ok then
      `Error (false, "NVML only supports the hash-based (static) workloads")
    else begin
      let bench = if ntxs > 0 then { workload with H.ntxs } else workload in
      let ptm = H.make_system ~nthreads:threads ~latency ~bandwidth system in
      Trace.enable ~capacity:ring ();
      let r = H.run_bench ptm bench in
      Trace.disable ();
      let total_cycles = r.H.run_cycles in
      Printf.printf "%s on %s: %d transactions, %d threads, %.1f GB/s, %d-cycle persists\n"
        bench.H.bname ptm.Dudetm_baselines.Ptm_intf.name r.H.ntxs_run threads bandwidth
        latency;
      Printf.printf "  throughput:  %s    wall cycles: %d\n\n" (H.pp_ktps r.H.ktps)
        total_cycles;
      Printf.printf "  %-24s %9s %14s %7s %9s %9s %9s\n" "phase" "count" "cycles" "%wall"
        "p50" "p99" "max";
      List.iter
        (fun p ->
          Printf.printf "  %-24s %9d %14d %6.1f%% %9d %9d %9d\n"
            (p.Trace.ph_cat ^ "." ^ p.Trace.ph_name)
            p.Trace.ph_count p.Trace.ph_total
            (100.0 *. float_of_int p.Trace.ph_total /. float_of_int (max 1 total_cycles))
            p.Trace.ph_p50 p.Trace.ph_p99 p.Trace.ph_max)
        (Trace.phases ());
      let accts = Trace.nvm_accts () in
      if accts <> [] then begin
        Printf.printf "\n  NVM channel, by issuing thread:\n";
        Printf.printf "  %-24s %12s %14s %9s %12s\n" "thread" "bytes" "cycles" "ops"
          "utilization";
        List.iter
          (fun a ->
            Printf.printf "  %-24s %12d %14d %9d %11.1f%%\n" a.Trace.nv_thread
              a.Trace.nv_bytes a.Trace.nv_cycles a.Trace.nv_ops
              (100.0 *. float_of_int a.Trace.nv_cycles /. float_of_int (max 1 total_cycles)))
          accts
      end;
      let dev_accts = Trace.nvm_dev_accts () in
      if dev_accts <> [] then begin
        Printf.printf "\n  NVM channel, by device:\n";
        Printf.printf "  %-24s %12s %14s %9s %12s\n" "device" "bytes" "cycles" "ops"
          "utilization";
        List.iter
          (fun a ->
            Printf.printf "  %-24s %12d %14d %9d %11.1f%%\n" a.Trace.nd_dev a.Trace.nd_bytes
              a.Trace.nd_cycles a.Trace.nd_ops
              (100.0 *. float_of_int a.Trace.nd_busy /. float_of_int (max 1 total_cycles)))
          dev_accts
      end;
      Printf.printf "\n  trace: %d events (%d dropped), %d phases\n" (Trace.events ())
        (Trace.dropped ())
        (List.length (Trace.phases ()));
      let violations = Trace.validate ~total_cycles () in
      (match export with
      | `None -> ()
      | `Chrome ->
        let file = Option.value out ~default:"dudetm_trace.json" in
        write_file file (Trace.to_chrome_json ());
        Printf.printf "  wrote Chrome trace_event JSON to %s\n" file
      | `Summary ->
        let file = Option.value out ~default:"dudetm_summary.json" in
        write_file file (Trace.summary_json ~total_cycles ());
        Printf.printf "  wrote profile summary to %s\n" file);
      match violations with
      | [] ->
        Printf.printf "  self-validation: clean\n";
        `Ok ()
      | vs ->
        List.iter (fun v -> Printf.printf "  trace violation: %s\n" v) vs;
        `Error (false, "trace self-validation failed")
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Profile a workload with cycle-accurate tracing: per-phase cycle attribution \
          (Perform / Persist / Reproduce / TM), NVM channel utilization per daemon, and \
          optional Chrome trace_event export.")
    Term.(
      ret
        (const run $ workload $ system $ ntxs $ threads $ bandwidth $ latency $ ring
       $ export $ out))

(* ------------------------------ torture ------------------------------- *)

exception Crashed

let torture_round cfg seed =
  let rng = Rng.create seed in
  let crash_cycles = 1_000 + Rng.int rng 500_000 in
  let evict = Rng.float rng in
  let t = D.create cfg in
  let slots = 128 in
  (try
     ignore
       (Sched.run (fun () ->
            D.start t;
            for th = 0 to cfg.Config.nthreads - 1 do
              ignore
                (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                     while true do
                       ignore
                         (D.atomically t ~thread:th (fun tx ->
                              let c = D.read tx 0 in
                              let c1 = Int64.add c 1L in
                              D.write tx (8 + (8 * (Int64.to_int c1 mod slots))) c1;
                              D.write tx 0 c1))
                     done))
            done;
            Sched.advance crash_cycles;
            raise Crashed))
   with Crashed -> ());
  Nvm.crash ~evict_fraction:evict ~rng (D.nvm t);
  let t2, report = D.attach cfg (D.nvm t) in
  let d = report.Dudetm_core.Dudetm.durable in
  if D.heap_read_u64 t2 0 <> Int64.of_int d then
    failwith (Printf.sprintf "round %d: counter != durable id %d" seed d);
  (crash_cycles, evict, d)

let torture_cmd =
  let rounds = Arg.(value & opt int 50 & info [ "rounds" ] ~doc:"Crash rounds to run.") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print each round.") in
  let run rounds verbose =
    let cfg =
      {
        Config.default with
        Config.heap_size = 1 lsl 20;
        nthreads = 3;
        vlog_capacity = 1024;
        plog_size = 1 lsl 14;
      }
    in
    for seed = 1 to rounds do
      let cycles, evict, d = torture_round cfg seed in
      if verbose then
        Printf.printf "round %3d: crash@%-7d evict=%.2f durable=%d OK\n%!" seed cycles evict d
    done;
    Printf.printf "torture: %d randomized crash/recovery rounds, all consistent\n" rounds
  in
  Cmd.v
    (Cmd.info "torture" ~doc:"Randomized crash-point injection with recovery verification.")
    Term.(const run $ rounds $ verbose)

(* ------------------------------- check -------------------------------- *)

let check_cmd =
  let open Dudetm_check in
  let module C = Campaign in
  let campaign =
    let doc = function
      | C.Media ->
        "Run the media-fault campaign: inject seeded bit rot, poison, and stuck lines \
         into the persisted image after crashes, scrub, recover, and require every \
         corruption to be repaired or reported — never silent."
      | C.Recovery ->
        "Run the nested-crash recovery campaign: cut power at sampled persist \
         boundaries inside attach and scrub (and, two deep, inside the recovery of a \
         crashed recovery) and require every leg to converge to the uninterrupted \
         recovery's durable ID, heap state, and report."
      | C.Daemons ->
        "Run the daemon fault-injection sweep: Persist and Reproduce workers raise \
         seeded transient faults and are restarted by the supervisor; runs must still \
         drain and recover exactly, moving only the restart/backoff counters."
      | C.Shards ->
        "Run the sharded cross-commit campaign: cut power at sampled persist \
         boundaries of every shard's device during cross-shard transfers and require \
         every transfer to be all-or-nothing and every vector-watermark \
         acknowledgement to survive."
      | C.Batch ->
        "Run the batch-boundary campaign: cut power at every persist boundary of the \
         pipelined combine/flush group commit (including between a batch's seal and \
         its record fence), then re-crash the recovered engine (two deep); recovery \
         must be exactly the acknowledged durable prefix."
      | C.Replica ->
        "Run the replicated-durability failover campaign: kill the primary at sampled \
         persist boundaries while the redo log ships to K replicas over clean, faulty \
         and partitioned links, promote a replica, and require every quorum-acked \
         transaction to survive."
      | C.Migrate ->
        "Run the live-migration campaign: cut power during a 4->8 resharding under \
         traffic — including between recovery's own handoff seals (two deep) — and \
         require every key on exactly one shard, no acknowledged write lost, and \
         every moved range recycled."
      | C.Snapshot ->
        "Run the snapshot-read campaign: read-only snapshots in volatile and durable \
         mode against pair writers through power cuts; read-sets must never tear and \
         durable-mode values must survive recovery."
      | C.Serve ->
        "Run the serving front-end campaign: client sessions drive requests through \
         the bounded queue, admission gate and durable-watermark acker; power cuts \
         mid-burst must lose no acknowledged request and half-apply no \
         unacknowledged one."
      | C.Engine -> ""
    in
    Arg.(value & vflag C.Engine (List.map (fun (c, n) -> (c, info [ n ] ~doc:(doc c))) C.names))
  in
  (* Campaign-specific flags travel as (flag, value) pairs; the campaign
     rejects any it does not declare and parses the values itself. *)
  let args =
    let arg ?(short = []) ?(docv = "N") key doc =
      let value = Arg.(value & opt (some string) None & info (short @ [ key ]) ~docv ~doc) in
      Term.(const (Option.map (fun v -> ("--" ^ key, v))) $ value)
    in
    List.fold_right
      (fun t acc -> Term.(const (fun a l -> Option.to_list a @ l) $ t $ acc))
      [
        arg ~short:[ "s" ] ~docv:"SYSTEM" "system"
          (Printf.sprintf "System to check: all (the default), or one of %s."
             (String.concat ", " Check.sut_names));
        arg ~short:[ "w" ] ~docv:"WORKLOAD" "workload"
          "Checker workload: counter, overlap, counter1, or all.";
        arg "threads" "Worker threads.";
        arg "txs" "Transactions per thread or client (cross-shard transfers with --shards).";
        arg "crash-budget"
          "Crash boundaries to explore under the default schedule (0 = budget default).";
        arg "sched-seeds" "Random-preemption seeds to try (-1 = budget default).";
        arg ~docv:"SCHED" "sched"
          "Replay one exact case under this schedule (default, seed:N, or prefix:c0,c1,...) \
           instead of exploring.";
        arg ~docv:"FRACTION" "evict"
          "Cache-eviction adversary: each dirty line independently leaks into the persisted \
           image with this probability at every power cut (0 disables).";
        arg ~docv:"SEED" "evict-seed" "RNG seed for --evict.";
        arg ~docv:"K" "replicas" "With --replica: replica count.";
        arg ~docv:"SCENARIO" "scenario"
          "With --replica: restrict the sweep to one link scenario (clean, faulty, or \
           partition); with --shards: to one persist policy (plain or combined).  With \
           --crash-at, replay one exact cut.";
        arg "shard-count" "With --shards: independent regions to create.";
        arg ~docv:"MIX" "faults"
          "With --media and --media-seed: replay one exact case with this fault mix (heap \
           or mixed).";
        arg ~docv:"SEED" "media-seed"
          "With --media and --faults: the fault-injection seed of the case to replay.";
        arg "media-seeds" "Fault-injection seeds the --media campaign sweeps.";
        arg ~docv:"LEG" "leg"
          "With --recovery: replay one exact nested-crash case whose first recovery-time \
           cut lands in this leg (attach or scrub).";
        arg "rec-seeds" "With --recovery: first-crash points to sweep (0 = budget default).";
        arg ~docv:"SEED" "daemon-seed"
          "With --daemons: replay the single case with this seed.";
        arg ~docv:"RATE" "fault-rate"
          "With --daemons: per-opportunity transient-fault probability.";
      ]
      (Term.const [])
  in
  let cuts =
    let cut key doc = Arg.(value & opt (some int) None & info [ key ] ~doc) in
    Term.(
      const (fun a b c -> C.cuts_of [ a; b; c ])
      $ cut "crash-at" "Cut power at this persist boundary, replaying one case (0 = none)."
      $ cut "crash2"
          "Second cut: inside the recovery leg (--recovery), after the first recovery \
           (--batch), or from the first re-attach on (--migrate)."
      $ cut "crash3" "With --recovery: third cut, inside the second recovery.")
  in
  let deep = Arg.(value & flag & info [ "deep" ] ~doc:"Use the deep exploration budget.") in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Use the bounded tier-1 budget for any campaign, ignoring DUDETM_CHECK_* \
             environment knobs (--recovery and --daemons also shrink to their smoke \
             sizes).")
  in
  let mutate =
    Arg.(
      value
      & opt (enum (("none", Config.No_fault) :: C.mutants)) Config.No_fault
      & info [ "mutate" ] ~docv:"FAULT"
          ~doc:
            ("Seed a deliberate bug into DudeTM (checker self-validation): none, "
            ^ String.concat ", " (List.map fst C.mutants)
            ^ "."))
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print progress.") in
  let run campaign fault args cuts deep quick verbose =
    let log = if verbose then fun s -> Printf.printf "  %s\n%!" s else fun _ -> () in
    let level = if deep then C.Deep else if quick then C.Quick else C.env_level () in
    let check label args =
      match Check.run ~fault ~level ~log ~args ~cuts campaign with
      | C.Pass { runs; boundaries; tallies } ->
        Printf.printf "%s: PASS (%d runs, %d persist boundaries seen%s)\n%!" label runs
          boundaries
          (String.concat "" (List.map (fun (n, v) -> Printf.sprintf ", %d %s" v n) tallies));
        true
      | C.Fail f ->
        Printf.printf "%s: FAIL: %s\n  replay: %s\n%!" label f.reason (C.replay_line f);
        false
    in
    match
      match campaign with
      | C.Engine ->
        let systems =
          match List.assoc_opt "--system" args with
          | None | Some "all" -> Check.sut_names
          | Some s -> [ s ]
        in
        List.fold_left
          (fun ok s ->
            let label = Check.sut_label (Check.sut_of_name ~fault s) in
            check label (("--system", s) :: List.remove_assoc "--system" args) && ok)
          true systems
      | c -> check (C.name c ^ " campaign") args
    with
    | true -> `Ok ()
    | false -> `Error (false, "check failed")
    | exception Invalid_argument msg -> `Error (true, msg)
    | exception Config.Invalid_config msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Systematic crash-consistency checking: enumerate power cuts at every persist \
          boundary and explore thread schedules, verifying recovery against a state-machine \
          oracle.  At most one campaign flag (--media, --recovery, --daemons, --shards, \
          --batch, --replica, --migrate, --snapshot, --serve) selects a crash campaign \
          instead; each accepts only its own flags.  A failure prints one replayable \
          line: dudetm check [--CAMPAIGN] [--mutate M] [FLAG VALUE]... [--crash-at K] \
          [--crash2 K] [--crash3 K].")
    Term.(ret (const run $ campaign $ mutate $ args $ cuts $ deep $ quick $ verbose))

(* ------------------------------- shard -------------------------------- *)

let shard_cmd =
  let module SB = Dudetm_shard.Shard_bench in
  let nshards =
    Arg.(
      value & opt int 4
      & info [ "n"; "shards" ] ~docv:"N" ~doc:"Independent persistent regions.")
  in
  let cross =
    Arg.(
      value & opt int 10
      & info [ "cross" ] ~docv:"PCT"
          ~doc:"Percentage of transactions that transfer across two shards.")
  in
  let ntxs = Arg.(value & opt int 2000 & info [ "txs" ] ~doc:"Transactions to run.") in
  let workers = Arg.(value & opt int 8 & info [ "workers" ] ~doc:"Worker threads.") in
  let bandwidth =
    Arg.(
      value & opt float 0.25
      & info [ "bandwidth" ] ~doc:"Per-shard NVM write bandwidth, GB/s.")
  in
  let latency =
    Arg.(value & opt int 500 & info [ "latency" ] ~doc:"Persist latency, cycles.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload RNG seed.") in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Trace the run and print per-shard device utilization afterwards.")
  in
  let run nshards cross ntxs workers bandwidth latency seed trace =
    if nshards < 1 || nshards > 60 then `Error (false, "--shards must be in [1, 60]")
    else if cross < 0 || cross > 100 then `Error (false, "--cross must be in [0, 100]")
    else begin
      if trace then Trace.enable ~capacity:65536 ();
      let r =
        SB.run ~seed ~bandwidth ~persist_latency:latency ~ntxs ~workers ~nshards
          ~cross_pct:cross ()
      in
      let dev_accts = if trace then Trace.nvm_dev_accts () else [] in
      if trace then Trace.disable ();
      Printf.printf
        "sharded DUDETM: %d shards, %d transactions, %d workers, %.2f GB/s per shard\n"
        r.SB.sb_nshards r.SB.sb_ntxs workers bandwidth;
      Printf.printf "  cross-shard:      %d of %d transactions (%d%% requested)\n"
        r.SB.sb_cross_txs r.SB.sb_ntxs r.SB.sb_cross_pct;
      Printf.printf "  durable throughput: %s (first commit through drain)\n"
        (H.pp_ktps r.SB.sb_ktps);
      Printf.printf "  cycles:           %d\n" r.SB.sb_cycles;
      Printf.printf "  commit latency:   %s\n" (SB.pp_commit_latency r);
      if dev_accts <> [] then begin
        let total_bytes =
          List.fold_left (fun acc a -> acc + a.Trace.nd_bytes) 0 dev_accts
        in
        Printf.printf "  NVM channel, by shard device:\n";
        Printf.printf "  %-12s %12s %14s %9s %12s\n" "device" "bytes" "cycles" "ops"
          "traffic share";
        List.iter
          (fun a ->
            Printf.printf "  %-12s %12d %14d %9d %11.1f%%\n" a.Trace.nd_dev
              a.Trace.nd_bytes a.Trace.nd_cycles a.Trace.nd_ops
              (100.0 *. float_of_int a.Trace.nd_bytes /. float_of_int (max 1 total_bytes)))
          dev_accts
      end;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run the partitioned workload on a sharded DUDETM instance (one persist and \
          one reproduce pipeline per region) and report end-to-end durable throughput, \
          the cross-shard mix, and commit-latency percentiles; with --trace, also the \
          per-shard NVM device utilization.")
    Term.(
      ret
        (const run $ nshards $ cross $ ntxs $ workers $ bandwidth $ latency $ seed
       $ trace))

(* ------------------------------- serve -------------------------------- *)

let serve_cmd =
  let module SL = Dudetm_serve.Serve_load in
  let nshards =
    Arg.(value & opt int 2 & info [ "n"; "shards" ] ~docv:"N" ~doc:"Shard count.")
  in
  let tenants = Arg.(value & opt int 4 & info [ "tenants" ] ~doc:"Tenant count.") in
  let sessions =
    Arg.(
      value & opt int 4 & info [ "sessions" ] ~doc:"Client sessions per tenant.")
  in
  let reqs =
    Arg.(
      value & opt int 200 & info [ "reqs" ] ~doc:"Requests per client session.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("open", `Open); ("closed", `Closed) ]) `Open
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Arrival process: open (Poisson at --rate, independent of service \
             time) or closed (one outstanding request per session, --think \
             cycles between replies).")
  in
  let rate =
    Arg.(
      value & opt float 200.0
      & info [ "rate" ] ~docv:"KTPS"
          ~doc:"With --mode open: total offered load, kilo-requests/s.")
  in
  let think =
    Arg.(
      value & opt int 2000
      & info [ "think" ] ~doc:"With --mode closed: think time, cycles.")
  in
  let ro =
    Arg.(
      value & opt int 500
      & info [ "ro" ] ~docv:"PERMILLE"
          ~doc:"Read-only requests per 1000 (reads bypass the admission gate).")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~doc:"Per-tenant Zipf skew exponent.")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Workload RNG seed.") in
  let run nshards tenants sessions reqs mode rate think ro theta seed =
    if nshards < 1 || nshards > 60 then `Error (false, "--shards must be in [1, 60]")
    else if tenants < 1 then `Error (false, "--tenants must be positive")
    else if sessions < 1 then `Error (false, "--sessions must be positive")
    else begin
      let mode =
        match mode with
        | `Open -> SL.Open { ktps = rate }
        | `Closed -> SL.Closed { think }
      in
      let r =
        SL.run ~theta ~ro_permille:ro ~seed ~nshards ~ntenants:tenants ~sessions
          ~reqs ~mode ()
      in
      Printf.printf
        "serve: %d tenants x %d sessions (%s loop), %d shards, %d reqs/session\n"
        tenants sessions r.SL.r_mode nshards reqs;
      if r.SL.r_mode = "open" then
        Printf.printf "  offered load:     %s\n" (H.pp_ktps r.SL.r_offered_ktps);
      Printf.printf "  goodput:          %s (%d replies)\n"
        (H.pp_ktps r.SL.r_achieved_ktps)
        r.SL.r_done;
      Printf.printf "  shed:             %d (typed Overloaded replies)\n" r.SL.r_shed;
      Printf.printf "  aborted:          %d\n" r.SL.r_aborted;
      let p l q = Dudetm_sim.Stats.Latency.percentile l q in
      Printf.printf "  write latency:    p50 %d / p95 %d / p99 %d cyc\n"
        (p r.SL.r_lat_write 50.0) (p r.SL.r_lat_write 95.0) (p r.SL.r_lat_write 99.0);
      Printf.printf "  read latency:     p50 %d / p95 %d / p99 %d cyc\n"
        (p r.SL.r_lat_read 50.0) (p r.SL.r_lat_read 95.0) (p r.SL.r_lat_read 99.0);
      Printf.printf "  admission gate:   %d trips, %d reopens, queue hwm %d\n"
        r.SL.r_gate_trips r.SL.r_gate_untrips r.SL.r_depth_hwm;
      Printf.printf "  per tenant:       %-8s %10s %8s %12s\n" "tenant" "done" "shed"
        "p99 (cyc)";
      Array.iteri
        (fun i d ->
          Printf.printf "                    %-8d %10d %8d %12d\n" i d
            r.SL.r_tenant_shed.(i)
            (p r.SL.r_tenant_lat.(i) 99.0))
        r.SL.r_tenant_done;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive the multi-tenant serving front end (bounded request queue, \
          hysteresis admission gate, deficit-round-robin dispatch, \
          durable-watermark acknowledgements) with open-loop Poisson or \
          closed-loop client sessions over a sharded instance, and report \
          goodput, shed counts, gate transitions and per-tenant latency.")
    Term.(
      ret
        (const run $ nshards $ tenants $ sessions $ reqs $ mode $ rate $ think $ ro
       $ theta $ seed))

(* ------------------------------- scrub -------------------------------- *)

let scrub_cmd =
  let module Scrub = Dudetm_scrub.Scrub in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault-injection RNG seed.") in
  let faults =
    Arg.(
      value & opt int 3
      & info [ "faults" ] ~doc:"Random media faults to inject before scrubbing.")
  in
  let probe =
    Arg.(
      value & flag
      & info [ "probe-stuck" ] ~doc:"Write-probe every heap line for stuck-at faults.")
  in
  let report_only =
    Arg.(value & flag & info [ "report-only" ] ~doc:"Audit without repairing.")
  in
  let run seed faults probe report_only =
    let cfg =
      {
        Config.default with
        Config.heap_size = 1 lsl 16;
        root_size = 4096;
        nthreads = 3;
        vlog_capacity = 256;
        plog_size = 1 lsl 13;
        meta_size = 8192;
        checkpoint_records = 2;
      }
    in
    let rng = Rng.create seed in
    let t = D.create cfg in
    let nvm = D.nvm t in
    (* Exercise the device with the counter workload, then cut power
       mid-run: the scrub gets a realistic image with live log records. *)
    let crash_cycles = 50_000 + Rng.int rng 200_000 in
    (try
       ignore
         (Sched.run (fun () ->
              D.start t;
              for th = 0 to cfg.Config.nthreads - 1 do
                ignore
                  (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                       while true do
                         ignore
                           (D.atomically t ~thread:th (fun tx ->
                                let c = D.read tx 0 in
                                let c1 = Int64.add c 1L in
                                D.write tx (8 + (8 * (Int64.to_int c1 mod 64))) c1;
                                D.write tx 0 c1))
                       done))
              done;
              Sched.advance crash_cycles;
              raise Crashed))
     with Crashed -> ());
    Nvm.crash nvm;
    let lines = Nvm.size nvm / Nvm.line_size nvm in
    for _ = 1 to faults do
      match Rng.int rng 3 with
      | 0 ->
        let off = Rng.int rng (Nvm.size nvm) and bit = Rng.int rng 8 in
        Printf.printf "inject: bit rot at byte %d, bit %d\n" off bit;
        Nvm.inject_fault nvm (Nvm.Bit_rot { off; bit })
      | 1 ->
        let line = Rng.int rng lines in
        Printf.printf "inject: poison line %d\n" line;
        Nvm.inject_fault nvm (Nvm.Poison { line })
      | _ ->
        let line = Rng.int rng (cfg.Config.heap_size / Nvm.line_size nvm) in
        Printf.printf "inject: stuck line %d\n" line;
        Nvm.inject_fault nvm (Nvm.Stuck_line { line })
    done;
    let r = Scrub.scrub ~repair:(not report_only) ~probe_stuck:probe cfg nvm in
    Format.printf "scrub: @[%a@]@." Scrub.pp_report r;
    if r.Scrub.ckpt = `Fatal then
      `Error (false, "both checkpoint slots lost: instance unrecoverable")
    else begin
      let t2, rr = D.attach cfg nvm in
      Printf.printf
        "recovery: durable=%d replayed=%d corrupted_records=%d quarantined_lines=%d\n"
        rr.Dudetm_core.Dudetm.durable rr.Dudetm_core.Dudetm.replayed_txs
        rr.Dudetm_core.Dudetm.corrupted_records rr.Dudetm_core.Dudetm.quarantined_lines;
      if r.Scrub.bad_extents <> [] then begin
        (* Unreconstructible extents: don't refuse service — attach in
           degraded read-only mode so the surviving data stays readable
           while writes are rejected with the reason. *)
        D.freeze t2
          ~reason:
            (Printf.sprintf "%d unreconstructible extent(s) reported by scrub"
               (List.length r.Scrub.bad_extents));
        Printf.printf
          "degraded: attached READ-ONLY (%d unreconstructible extents; writes and \
           allocation will raise Read_only)\n"
          (List.length r.Scrub.bad_extents);
        `Ok ()
      end
      else `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Media-fault scrub demo: exercise a device, crash it, inject seeded media faults \
          (bit rot, poison, stuck lines), then audit and repair via the checksum directory \
          and live log records before recovering.")
    Term.(ret (const run $ seed $ faults $ probe $ report_only))

(* ------------------------------ layout -------------------------------- *)

let layout_cmd =
  let run () =
    let cfg = Config.default in
    Printf.printf "default configuration:\n";
    Printf.printf "  heap:            %d MiB at offset 0\n" (cfg.Config.heap_size lsr 20);
    Printf.printf "  meta block:      %d KiB at 0x%x\n" (cfg.Config.meta_size lsr 10)
      (Config.meta_base cfg);
    Printf.printf "  crc directory:   %d KiB at 0x%x (%d-byte extents)\n"
      (Config.crcdir_size cfg lsr 10) (Config.crcdir_base cfg) Config.crc_extent;
    Printf.printf "  bad-line table:  %d B at 0x%x (%d entries)\n"
      (Config.badline_size cfg) (Config.badline_base cfg) Config.badline_capacity;
    Printf.printf "  log rings:       %d x %d KiB starting at 0x%x\n"
      (Config.plog_regions cfg) (cfg.Config.plog_size lsr 10) (Config.plog_base cfg 0);
    Printf.printf "  device size:     %d MiB\n" (Config.nvm_size cfg lsr 20);
    Printf.printf "  threads:         %d\n" cfg.Config.nthreads;
    Printf.printf "  volatile log:    %d entries per thread\n" cfg.Config.vlog_capacity;
    Printf.printf "  NVM:             %.1f GB/s, %d-cycle persists\n"
      cfg.Config.pmem.Dudetm_nvm.Pmem_config.bandwidth_gbps
      cfg.Config.pmem.Dudetm_nvm.Pmem_config.persist_latency
  in
  Cmd.v (Cmd.info "layout" ~doc:"Print the default NVM layout and configuration.")
    Term.(const run $ const ())

let () =
  let doc = "DudeTM: decoupled durable transactions for persistent memory (simulated)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "dudetm" ~doc)
          [
            run_cmd;
            trace_cmd;
            torture_cmd;
            check_cmd;
            shard_cmd;
            serve_cmd;
            scrub_cmd;
            layout_cmd;
          ]))
