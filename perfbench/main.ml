(* The repository benchmark: one workload per invocation.

     main.exe --workload serve-mixed|shard-cross|tpcc-paged --seed N
              --seconds S --trace 0|1 [--spans-out FILE]

   A run repeats rounds of the workload (each round sets up fresh devices
   from the seed, runs, cuts power, recovers and checks) until the next
   round would overrun [--seconds].  Simulated-clock metrics come from the
   deterministic scheduler, so every round of a seed must reproduce them
   exactly; host-clock metrics are medians over rounds, sub-runs and legs.

   With [--trace 0] the last line of stdout is the end-to-end metrics as
   JSON.  With [--trace 1] rounds alternate untraced and traced; the
   traced ones record spans around every call the benchmark makes into a
   layer, and the JSON holds the per-layer metrics.  Either line also
   carries the simulated metrics of the other kind; run.py keeps the ones
   BENCHMARK.json declares.  Any failed check exits non-zero without
   printing a result. *)

open Common

let workloads =
  [ ("serve-mixed", Wl_serve.run); ("shard-cross", Wl_shard.run); ("tpcc-paged", Wl_tpcc.run) ]

type args = {
  mutable workload : string;
  mutable seed : int option;
  mutable seconds : float;
  mutable trace : bool;
  mutable spans_out : string option;
}

let parse () =
  let a = { workload = ""; seed = None; seconds = 10.0; trace = false; spans_out = None } in
  let spec =
    [
      ("--workload", Arg.String (fun s -> a.workload <- s), "NAME serve-mixed, shard-cross or tpcc-paged");
      ("--seed", Arg.Int (fun n -> a.seed <- Some n), "N workload seed");
      ("--seconds", Arg.Float (fun s -> a.seconds <- s), "S measuring time budget");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> a.trace <- false
          | 1 -> a.trace <- true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 report end-to-end (0) or per-layer (1) metrics" );
      ("--spans-out", Arg.String (fun s -> a.spans_out <- Some s), "FILE write the traced spans here");
    ]
  in
  Arg.parse spec (fun x -> raise (Arg.Bad ("unexpected argument " ^ x))) "main.exe [options]";
  if not (List.mem_assoc a.workload workloads) then begin
    prerr_endline ("unknown workload " ^ a.workload);
    exit 2
  end;
  if a.seed = None then begin
    prerr_endline "--seed is required";
    exit 2
  end;
  a

(* ------------------------------------------------------------------ *)

let same_sim (a : metric list) (b : metric list) =
  List.length a = List.length b
  && List.for_all2 (fun (x : metric) (y : metric) -> x.name = y.name && x.value = y.value && x.n = y.n) a b

let find name l = List.find_opt (fun (x : metric) -> x.name = name) l

(* Every reported value must be a finite number. *)
let finite metrics =
  List.iter
    (fun (x : metric) -> if not (Float.is_finite x.value) then fail "%s is not a finite number" x.name)
    metrics;
  metrics

let json_line ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b {|{"correct": true, "attempted": %d, "failed": %d, "metrics": {|} attempted failed;
  List.iteri
    (fun i (x : metric) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b {|"%s": {"value": %.17g, "unit": "%s"}|} x.name x.value x.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun (x : metric) ->
      Printf.printf "  %-34s %16.6f %-7s %s\n" x.name x.value x.unit_
        (if x.n > 0 then Printf.sprintf "n=%d" x.n else ""))
    metrics

let run a =
  let run_round = List.assoc a.workload workloads in
  let seed = Option.get a.seed in
  let t_start = host_s () in
  let untraced = ref [] and traced = ref [] and spans_kept = ref None in
  let round ~trace =
    let spans = Spans.create ~enabled:trace ~sim_now:Sched.now ~host_now:host_ns in
    let t0 = host_s () in
    let o = run_round ~seed ~spans in
    let elapsed = host_s () -. t0 in
    (match !untraced @ !traced with
    | (first : outcome) :: _ when not (same_sim first.sim o.sim) ->
      fail "simulated results differ between rounds of seed %d" seed
    | _ -> ());
    if trace then begin
      traced := !traced @ [ o ];
      if !spans_kept = None then spans_kept := Some spans
    end
    else untraced := !untraced @ [ o ];
    elapsed
  in
  (* Rounds continue while the next one, as long as the last, still fits
     the budget; a traced run alternates untraced and traced rounds. *)
  let last = ref (round ~trace:false) in
  (* The peak heap after the first round: the same work for every run of a
     seed, so later rounds' garbage timing cannot move it. *)
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  if a.trace then last := Float.max !last (round ~trace:true);
  while host_s () -. t_start +. (if a.trace then 2.0 else 1.0) *. !last <= a.seconds do
    last := round ~trace:false;
    if a.trace then last := Float.max !last (round ~trace:true)
  done;
  let first : outcome = List.hd !untraced in
  let median_of f l = Measure.median (List.concat_map f l) in
  let metrics =
    if not a.trace then begin
      finite
        (first.sim
        @ [
            m ~n:(List.length (List.concat_map (fun o -> o.setups_s) !untraced)) "setup_s" "s"
              (median_of (fun o -> o.setups_s) !untraced);
            m
              ~n:(List.length (List.concat_map (fun o -> o.host_us_per_tx) !untraced))
              "host_us_per_tx" "us"
              (median_of (fun o -> o.host_us_per_tx) !untraced);
            m "host_heap_mb" "MB" heap_mb;
          ])
    end
    else begin
      let tr : outcome = List.hd !traced in
      let host_layer =
        List.map
          (fun (x : metric) ->
            let values = List.filter_map (fun o -> find x.name o.host_layer) !traced in
            { x with value = Measure.median (List.map (fun (y : metric) -> y.value) values) })
          tr.host_layer
      in
      let overhead =
        median_of (fun o -> o.host_us_per_tx) !traced
        /. median_of (fun o -> o.host_us_per_tx) !untraced
      in
      finite
        (first.sim @ tr.traced @ host_layer
        @ [
            m "sim.alloc_words_per_tx" "words" first.alloc_words_per_tx;
            m ~n:(List.length !traced) "trace.host_overhead" "ratio" overhead;
          ])
    end
  in
  Printf.printf "workload %s, seed %d: %d untraced and %d traced rounds in %.1f s\n" a.workload seed
    (List.length !untraced) (List.length !traced) (host_s () -. t_start);
  (match !spans_kept with
  | Some spans ->
    Printf.printf "spans of the first traced round: %d; self time by span name (simulated us)\n"
      (Spans.count spans);
    List.iter
      (fun (name, k, dur, self) ->
        Printf.printf "  %-24s %9d spans %14.1f total %14.1f self\n" name k (us dur) (us self))
      (Spans.summary spans);
    Option.iter (Spans.write_tsv spans) a.spans_out
  | None -> ());
  print_table (if a.trace then "traced run" else "untraced run") metrics;
  print_endline (json_line ~attempted:first.attempted ~failed:first.failed metrics)

let () =
  let a = parse () in
  match run a with
  | () -> ()
  | exception Check_failed msg ->
    prerr_endline ("check failed: " ^ msg);
    exit 1
