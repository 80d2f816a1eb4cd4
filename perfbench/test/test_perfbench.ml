(* Tests of the benchmark's own arithmetic: percentiles and the
   sample-count rule, the SLO-rate selection, span self times and the NVM
   traffic ratios. *)

let samples_of l =
  let s = Measure.samples () in
  List.iter (Measure.add s) l;
  s

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* A fixed permutation, so order statistics cannot come from insertion
   order. *)
let shuffled l =
  let a = Array.of_list l in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = (i * 7919) mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let opt = Alcotest.(option int)

let test_exact_percentiles () =
  let s = samples_of (shuffled (range 1 1000)) in
  Alcotest.(check int) "count" 1000 (Measure.count s);
  Alcotest.check opt "p50 is an order statistic" (Some 500) (Measure.percentile s 50.0);
  Alcotest.check opt "p99 is an order statistic" (Some 990) (Measure.percentile s 99.0);
  (* Not a log2 bucket bound. *)
  let s = samples_of (shuffled (List.map (fun x -> 3 * x) (range 1 100))) in
  Alcotest.check opt "p50 of multiples of 3" (Some 150) (Measure.percentile s 50.0);
  Alcotest.check opt "p90" (Some 270) (Measure.percentile s 90.0)

let test_sample_count_rule () =
  (* p99 of n samples has n - ceil(0.99 n) samples beyond it. *)
  Alcotest.check opt "1000 samples: 10 beyond p99" (Some 990)
    (Measure.percentile (samples_of (range 1 1000)) 99.0);
  Alcotest.check opt "999 samples: 9 beyond p99" None
    (Measure.percentile (samples_of (range 1 999)) 99.0);
  Alcotest.check opt "20 samples: 10 beyond p50" (Some 10)
    (Measure.percentile (samples_of (range 1 20)) 50.0);
  Alcotest.check opt "19 samples: 9 beyond p50" None
    (Measure.percentile (samples_of (range 1 19)) 50.0);
  Alcotest.check opt "no samples" None (Measure.percentile (Measure.samples ()) 50.0)

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Measure.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Measure.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Measure.median: no values") (fun () ->
      ignore (Measure.median []))

let point ?(p99 = Some 5.0) ?(shed = 0) ?(failed = 0) ?(grew = false) rate goodput =
  {
    Measure.rate_mtps = rate;
    goodput_mtps = goodput;
    ack_p99_us = p99;
    shed;
    failed;
    backlog_grew = grew;
  }

let flt = Alcotest.float 0.0

let test_slo_rate () =
  let limit_us = 10.0 in
  let rate pts = Measure.slo_rate ~limit_us pts in
  Alcotest.check flt "highest qualifying rate, its measured goodput" 79.5
    (rate [ point 38.0 37.9; point 80.0 79.5; point 126.0 110.0 ~shed:3 ]);
  Alcotest.check flt "order of points does not matter" 79.5
    (rate [ point 126.0 110.0 ~shed:3; point 80.0 79.5; point 38.0 37.9 ]);
  Alcotest.check flt "p99 over the limit" 37.9
    (rate [ point 38.0 37.9; point 80.0 79.5 ~p99:(Some 10.5) ]);
  Alcotest.check flt "p99 at the limit qualifies" 79.5
    (rate [ point 38.0 37.9; point 80.0 79.5 ~p99:(Some 10.0) ]);
  Alcotest.check flt "a failed request disqualifies" 37.9
    (rate [ point 38.0 37.9; point 80.0 79.5 ~failed:1 ]);
  Alcotest.check flt "a growing backlog disqualifies" 37.9
    (rate [ point 38.0 37.9; point 80.0 79.5 ~grew:true ]);
  Alcotest.check flt "too few samples for a p99 disqualifies" 37.9
    (rate [ point 38.0 37.9; point 80.0 79.5 ~p99:None ]);
  Alcotest.check flt "no rate qualifies" 0.0
    (rate [ point 38.0 37.9 ~shed:1; point 80.0 79.5 ~p99:(Some 11.0) ]);
  Alcotest.(check bool) "no rate qualifies: no point" true
    (Measure.slo_point ~limit_us [ point 38.0 37.9 ~shed:1 ] = None);
  Alcotest.(check bool) "backlog growth beyond the window" true
    (Measure.backlog_grew ~at_start:10 ~at_end:75 ~window:64);
  Alcotest.(check bool) "backlog jitter within the window" false
    (Measure.backlog_grew ~at_start:10 ~at_end:74 ~window:64)

(* Spans on a hand-driven simulated clock. *)
let test_self_time () =
  let clock = ref 0 in
  let t = Spans.create ~enabled:true ~sim_now:(fun () -> !clock) ~host_now:(fun () -> 0) in
  let at c = clock := c in
  at 0;
  let root = Spans.enter t ~req:1 "request" in
  at 10;
  let a = Spans.enter t ~parent:root ~req:1 "a" in
  at 20;
  let a1 = Spans.enter t ~parent:a ~req:1 "a1" in
  at 30;
  Spans.leave t a1;
  at 35;
  (* Overlaps [a]: another fiber of the same request. *)
  let b = Spans.enter t ~parent:root ~req:1 "b" in
  at 40;
  Spans.leave t a;
  at 60;
  Spans.leave t b;
  at 100;
  Spans.leave t root;
  let self = Spans.self_times t in
  Alcotest.(check int) "root: 100 minus the union [10,60)" 50 self.(root);
  Alcotest.(check int) "a: 30 minus its child's 10" 20 self.(a);
  Alcotest.(check int) "leaf" 10 self.(a1);
  Alcotest.(check int) "b" 25 self.(b);
  let by_name = List.map (fun (n, k, dur, s) -> (n, (k, dur, s))) (Spans.summary t) in
  Alcotest.(check (list string)) "names in order of first appearance" [ "request"; "a"; "a1"; "b" ]
    (List.map fst by_name);
  Alcotest.(check (triple int int int)) "summary of a" (1, 30, 20) (List.assoc "a" by_name);
  let d = Spans.durations t "a1" in
  Alcotest.(check int) "durations" 1 (Measure.count d);
  (* A span never closed contributes nothing and hides no child time. *)
  let open_span = Spans.enter t ~req:2 "open" in
  Alcotest.(check int) "open span has no self time" 0 (Spans.self_times t).(open_span)

let test_self_time_backdated () =
  let clock = ref 50 in
  let t = Spans.create ~enabled:true ~sim_now:(fun () -> !clock) ~host_now:(fun () -> 0) in
  (* A request timed from when it was due (20), submitted at 50, replied
     at a time stamped by the pipeline (90). *)
  let root = Spans.enter t ~sim0:20 ~req:7 "request" in
  ignore (Spans.record t ~parent:root ~req:7 "late" ~sim0:20 ~sim1:50);
  ignore (Spans.record t ~parent:root ~req:7 "await" ~sim0:50 ~sim1:90);
  clock := 120;
  Spans.leave_at t root ~sim1:95;
  Alcotest.(check int) "root self: 75 minus 70 covered" 5 (Spans.self_times t).(root)

let test_disabled_spans () =
  let t = Spans.create ~enabled:false ~sim_now:(fun () -> assert false) ~host_now:(fun () -> assert false) in
  let id = Spans.enter t ~req:1 "x" in
  Spans.leave t id;
  Alcotest.(check int) "returns none" Spans.none id;
  Alcotest.(check int) "records nothing" 0 (Spans.count t)

let test_covered () =
  Alcotest.(check int) "disjoint" 20 (Spans.covered ~lo:0 ~hi:100 [ (10, 20); (30, 40) ]);
  Alcotest.(check int) "nested and overlapping" 40
    (Spans.covered ~lo:0 ~hi:100 [ (10, 40); (20, 30); (35, 50) ]);
  Alcotest.(check int) "clipped to the parent" 7 (Spans.covered ~lo:10 ~hi:20 [ (0, 15); (18, 30) ]);
  Alcotest.(check int) "none" 0 (Spans.covered ~lo:0 ~hi:10 [ (20, 30) ])

let test_nvm_ratios () =
  Alcotest.check flt "write amplification" 7.5 (Measure.write_amp ~nvm_bytes:600 ~user_bytes:80);
  Alcotest.check_raises "no user bytes" (Invalid_argument "Measure.write_amp: no user bytes")
    (fun () -> ignore (Measure.write_amp ~nvm_bytes:1 ~user_bytes:0));
  (* One simulated second at 3.4 GHz is 3.4e9 cycles. *)
  Alcotest.(check (float 1e-12)) "a full channel" 1.0
    (Measure.bw_util ~bytes:1_000_000_000 ~gbps:1.0 ~cycles:3_400_000_000 ~ghz:3.4);
  Alcotest.(check (float 1e-12)) "a quarter of a 0.25 GB/s channel over 1 ms" 0.25
    (Measure.bw_util ~bytes:62_500 ~gbps:0.25 ~cycles:3_400_000 ~ghz:3.4);
  Alcotest.check_raises "empty window" (Invalid_argument "Measure.bw_util: empty window") (fun () ->
      ignore (Measure.bw_util ~bytes:1 ~gbps:1.0 ~cycles:0 ~ghz:3.4));
  Alcotest.check flt "ratio with a zero base" 0.0 (Measure.ratio 5 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "exact percentiles" `Quick test_exact_percentiles;
          Alcotest.test_case "sample-count rule" `Quick test_sample_count_rule;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "slo rate selection" `Quick test_slo_rate;
          Alcotest.test_case "nvm ratios" `Quick test_nvm_ratios;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "self time of a backdated request" `Quick test_self_time_backdated;
          Alcotest.test_case "covered intervals" `Quick test_covered;
          Alcotest.test_case "disabled store" `Quick test_disabled_spans;
        ] );
    ]
