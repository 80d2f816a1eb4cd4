(* Persist-pipeline tail experiment: commit-latency distribution under
   bounded adaptive group commit, one shard of the shard workload (0%
   cross; the multi-shard rows are BENCH_shard's).

   It sweeps the batch bound and the group-commit deadline, mapping the
   latency/throughput trade-off: small bounds cut the tail but pay
   per-record overhead; long deadlines amortize better but delay lightly
   loaded batches.  Each row reports p50/p99 commit latency and the
   p99/p50 tail-amplification ratio — the metric the bounded batches
   exist to control.  The run fails if the default row's ratio (bound
   128, deadline 4000) exceeds 10x: that is the regression gate against
   the old drain-everything Persist loop, whose single giant flush put
   p99 at 150x p50.  Emits BENCH_persist.json. *)

open Dudetm_harness.Harness
module SB = Dudetm_shard.Shard_bench

let canonical_ntxs = 2_000

let batch_maxes = [ 16; 32; 64; 128; 256 ]

let deadlines = [ 500; 1_000; 4_000; 16_000 ]

let pcts r =
  let p q = Dudetm_sim.Stats.Latency.percentile r.SB.sb_commit_latency q in
  (p 50.0, p 99.0)

let row_json ?batch_max ?deadline r =
  let p50, p99 = pcts r in
  let opt name = function
    | None -> ""
    | Some v -> Printf.sprintf "\"%s\": %d, " name v
  in
  Printf.sprintf
    {|    {"shards": %d, %s%s"txs": %d, "ktps": %.1f, "commit_p50": %d, "commit_p99": %d, "p99_over_p50": %.1f}|}
    r.SB.sb_nshards
    (opt "batch_max" batch_max)
    (opt "deadline" deadline)
    r.SB.sb_ntxs r.SB.sb_ktps p50 p99 (SB.tail_ratio r)

let run ?(scale = 1.0) () =
  let ntxs = max 400 (int_of_float (float_of_int canonical_ntxs *. scale)) in
  section
    (Printf.sprintf
       "Persist pipeline tail: bounded group commit, %d txs, 8 workers, 0.25 GB/s per \
        shard"
       ntxs);
  Printf.printf "batch-bound sweep at 1 shard (deadline = default):\n";
  Printf.printf "%-10s %12s %10s %10s %10s\n" "batch_max" "throughput" "p50" "p99"
    "p99/p50";
  let bound_rows =
    List.map
      (fun b ->
        let r =
          SB.run ~ntxs ~batch_min:(min 16 b) ~batch_max:b ~nshards:1 ~cross_pct:0 ()
        in
        let p50, p99 = pcts r in
        Printf.printf "%-10d %12s %10d %10d %9.1fx\n" b (pp_ktps r.SB.sb_ktps) p50 p99
          (SB.tail_ratio r);
        (b, r))
      batch_maxes
  in
  Printf.printf "\ndeadline sweep at 1 shard (bounds = default):\n";
  Printf.printf "%-10s %12s %10s %10s %10s\n" "deadline" "throughput" "p50" "p99"
    "p99/p50";
  let deadline_rows =
    List.map
      (fun d ->
        let r = SB.run ~ntxs ~batch_deadline:d ~nshards:1 ~cross_pct:0 () in
        let p50, p99 = pcts r in
        Printf.printf "%-10d %12s %10d %10d %9.1fx\n" d (pp_ktps r.SB.sb_ktps) p50 p99
          (SB.tail_ratio r);
        (d, r))
      deadlines
  in
  (* The gate reads the default row: bound [batch_max_entries], default
     deadline. *)
  let ratio1 =
    SB.tail_ratio (List.assoc Dudetm_core.Config.default.batch_max_entries bound_rows)
  in
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"persist-tail\",\n  \"txs\": %d,\n  \"workers\": 8,\n  \
       \"bandwidth_gbps\": 0.25,\n  \"tail_ratio_1_shard\": %.1f,\n  \"batch_sweep\": \
       [\n%s\n  ],\n  \"deadline_sweep\": [\n%s\n  ]\n}\n"
      ntxs ratio1
      (String.concat ",\n"
         (List.map (fun (b, r) -> row_json ~batch_max:b r) bound_rows))
      (String.concat ",\n"
         (List.map (fun (d, r) -> row_json ~deadline:d r) deadline_rows))
  in
  write_artifact "BENCH_persist.json" json;
  if ratio1 > 10.0 then begin
    Printf.printf
      "PERSIST TAIL REGRESSION: commit p99/p50 at 1 shard is %.1fx (> 10x)\n" ratio1;
    exit 1
  end
  else
    Printf.printf "persist tail check: commit p99/p50 at 1 shard is %.1fx (<= 10x)\n"
      ratio1

let tiny () = ignore (SB.run ~ntxs:200 ~batch_max:32 ~nshards:1 ~cross_pct:0 ())
