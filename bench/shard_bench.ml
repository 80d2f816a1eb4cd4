(* Shard-scaling experiment (extension beyond the paper's figures): the
   sharded engine's end-to-end durable throughput at 1/2/4/8 regions and
   0/5/20% cross-shard transactions, same workload and seed throughout
   (one shard has no other shard to cross to, so it runs the 0% row only).

   At 0% cross-shard every region's Persist/Reproduce pipeline runs
   independently, so throughput should scale with shard count — the run
   fails if 8 shards deliver less than 4x one shard.  Cross-shard
   transactions reintroduce coupling (shared gtid lock, sibling-gated
   replay), so the 20% column shows the crossover where coordination eats
   the scaling.  Emits the machine-readable BENCH_shard.json. *)

open Dudetm_harness.Harness
module SB = Dudetm_shard.Shard_bench

let shard_counts = [ 1; 2; 4; 8 ]

let cross_pcts = function 1 -> [ 0 ] | _ -> [ 0; 5; 20 ]

let canonical_ntxs = 2_000

let row_json r =
  let p q = Dudetm_sim.Stats.Latency.percentile r.SB.sb_commit_latency q in
  let p50 = p 50.0 and p99 = p 99.0 in
  let tail = if p50 > 0 then float_of_int p99 /. float_of_int p50 else 0.0 in
  Printf.sprintf
    {|    {"shards": %d, "cross_pct": %d, "txs": %d, "cross_txs": %d, "cycles": %d, "ktps": %.1f, "commit_p50": %d, "commit_p95": %d, "commit_p99": %d, "p99_over_p50": %.2f}|}
    r.SB.sb_nshards r.SB.sb_cross_pct r.SB.sb_ntxs r.SB.sb_cross_txs r.SB.sb_cycles
    r.SB.sb_ktps p50 (p 95.0) p99 tail

let run ?(scale = 1.0) () =
  let ntxs = max 400 (int_of_float (float_of_int canonical_ntxs *. scale)) in
  section
    (Printf.sprintf
       "Shard scaling: partitioned KV mix, %d txs, 8 workers, 0.25 GB/s per shard" ntxs);
  let rows =
    List.concat_map
      (fun n ->
        List.map (fun pct -> SB.run ~ntxs ~nshards:n ~cross_pct:pct ()) (cross_pcts n))
      shard_counts
  in
  let find n pct =
    List.find (fun r -> r.SB.sb_nshards = n && r.SB.sb_cross_pct = pct) rows
  in
  let base = find 1 0 in
  Printf.printf "%-8s %-8s %12s %9s %10s   %s\n" "shards" "cross" "throughput"
    "speedup" "cross txs" "commit latency";
  List.iter
    (fun r ->
      Printf.printf "%-8d %-8s %12s %8.2fx %10d   %s\n" r.SB.sb_nshards
        (string_of_int r.SB.sb_cross_pct ^ "%") (pp_ktps r.SB.sb_ktps)
        (r.SB.sb_ktps /. base.SB.sb_ktps)
        r.SB.sb_cross_txs (SB.pp_commit_latency r))
    rows;
  let speedup8 = (find 8 0).SB.sb_ktps /. base.SB.sb_ktps in
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"shard-scaling\",\n  \"txs\": %d,\n  \"workers\": 8,\n  \
       \"bandwidth_gbps\": 0.25,\n  \"speedup_8_shards_0pct\": %.2f,\n  \"rows\": [\n%s\n  ]\n}\n"
      ntxs speedup8
      (String.concat ",\n" (List.map row_json rows))
  in
  write_artifact "BENCH_shard.json" json;
  if speedup8 < 4.0 then begin
    Printf.printf
      "SHARD SCALING REGRESSION: 8 shards at 0%% cross-shard is %.2fx one shard (< 4x)\n"
      speedup8;
    exit 1
  end
  else
    Printf.printf
      "shard scaling check: 8 shards at 0%% cross-shard is %.2fx one shard (>= 4x)\n"
      speedup8

let tiny () = ignore (SB.run ~ntxs:200 ~nshards:2 ~cross_pct:10 ())
