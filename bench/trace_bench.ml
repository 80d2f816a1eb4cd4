(* Trace-driven profile of the pipeline (extension beyond the paper's
   figures): run the canonical KV workload under cycle-accurate tracing at
   1 and 16 GB/s, print where each pipeline stage spends its cycles, emit
   the machine-readable BENCH_trace.json summary, and compare per-phase
   p50 cycles against the checked-in baseline — the simulation is
   deterministic, so any drift is a real change, and >25% is a failure. *)

open Dudetm_harness.Harness
module Trace = Dudetm_trace.Trace

(* Fixed canonical configuration: the baseline comparison must not depend
   on --scale, and a 2000-transaction run keeps the smoke step fast. *)
let canonical_ntxs = 2_000

let profile ~bandwidth =
  let ptm = make_system ~nthreads:4 ~latency:1000 ~bandwidth Dude in
  Trace.enable ~capacity:65536 ();
  let r = run_bench ptm (kv_bench ~ntxs:canonical_ntxs ()) in
  let phases = Trace.phases () in
  let accts = Trace.nvm_accts () in
  let summary = Trace.summary_json ~total_cycles:r.run_cycles () in
  let violations = Trace.validate ~total_cycles:r.run_cycles () in
  Trace.disable ();
  (r, phases, accts, summary, violations)

let p50_of phases key =
  List.find_opt (fun p -> p.Trace.ph_cat ^ "." ^ p.Trace.ph_name = key) phases
  |> Option.map (fun p -> p.Trace.ph_p50)

let baseline_path () =
  match Sys.getenv_opt "DUDETM_TRACE_BASELINE" with
  | Some p -> p
  | None -> Filename.concat "bench" "trace_baseline.tsv"

(* Baseline format: one "phase<TAB>p50" line per phase; '#' comments. *)
let load_baseline path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        Some (List.rev acc)
      | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else
          (match String.split_on_char '\t' line with
          | [ phase; p50 ] -> go ((phase, int_of_string p50) :: acc)
          | _ -> go acc)
    in
    go []
  end

let utilization accts total =
  List.map
    (fun a ->
      (a.Trace.nv_thread, 100.0 *. float_of_int a.Trace.nv_cycles /. float_of_int (max 1 total)))
    accts

let run ?scale:(_ = 1.0) () =
  section
    (Printf.sprintf "Trace profile: KV on DUDETM, %d txs, 4 threads, 1 vs 16 GB/s"
       canonical_ntxs);
  let r1, ph1, ac1, summary, v1 = profile ~bandwidth:1.0 in
  let r16, ph16, _, _, v16 = profile ~bandwidth:16.0 in
  let pct total c = 100.0 *. float_of_int c /. float_of_int (max 1 total) in
  Printf.printf "%-24s %14s %7s %14s %7s\n" "phase" "cyc @1GB/s" "%wall" "cyc @16GB/s"
    "%wall";
  List.iter
    (fun p ->
      let key = p.Trace.ph_cat ^ "." ^ p.Trace.ph_name in
      let c16 =
        List.find_opt (fun q -> q.Trace.ph_cat ^ "." ^ q.Trace.ph_name = key) ph16
        |> Option.fold ~none:0 ~some:(fun q -> q.Trace.ph_total)
      in
      Printf.printf "%-24s %14d %6.1f%% %14d %6.1f%%\n" key p.Trace.ph_total
        (pct r1.run_cycles p.Trace.ph_total)
        c16
        (pct r16.run_cycles c16))
    ph1;
  Printf.printf "wall cycles: %d @1GB/s, %d @16GB/s\n" r1.run_cycles r16.run_cycles;
  report_commit_latency "KV @1GB/s" r1;
  report_commit_latency "KV @16GB/s" r16;
  List.iter
    (fun (name, u) -> Printf.printf "NVM utilization @1GB/s  %-12s %5.1f%%\n" name u)
    (utilization ac1 r1.run_cycles);
  let violations = v1 @ v16 in
  if violations <> [] then begin
    List.iter (fun v -> Printf.printf "trace violation: %s\n" v) violations;
    exit 1
  end;
  write_artifact "BENCH_trace.json" summary;
  (* Per-phase p50 regression gate against the checked-in baseline (1 GB/s
     run).  p50s are log2-bucket lower bounds, so any bucket move is a 2x
     change and trips the 25% threshold — deterministic, not flaky. *)
  match load_baseline (baseline_path ()) with
  | None ->
    Printf.printf
      "TRACE BASELINE MISSING: %s not found (run from the repo root or set \
       DUDETM_TRACE_BASELINE)\n"
      (baseline_path ());
    exit 1
  | Some base ->
    let failures = ref 0 in
    List.iter
      (fun (key, base_p50) ->
        match p50_of ph1 key with
        | None ->
          Printf.printf "REGRESSION %-24s gone from profile (baseline p50 %d)\n" key
            base_p50;
          incr failures
        | Some p50 ->
          if float_of_int p50 > 1.25 *. float_of_int base_p50 then begin
            Printf.printf "REGRESSION %-24s p50 %d > baseline %d (+%.0f%%)\n" key p50
              base_p50
              (100.0 *. (float_of_int p50 /. float_of_int (max 1 base_p50) -. 1.0));
            incr failures
          end
          else Printf.printf "ok         %-24s p50 %d (baseline %d)\n" key p50 base_p50)
      base;
    if !failures > 0 then begin
      Printf.printf "trace regression check: %d phase(s) regressed >25%%\n" !failures;
      exit 1
    end
    else Printf.printf "trace regression check: all phases within 25%% of baseline\n"

let tiny () =
  Trace.enable ~capacity:4096 ();
  ignore (run_bench (make_system Dude) (kv_bench ~ntxs:400 ()));
  Trace.disable ()
