(* lib/trace tests: ring-buffer wrap, violation detection (orphans,
   mismatches, non-monotone timestamps, unclosed spans), histogram
   percentiles, span invariants under seeded random schedules,
   disabled-mode determinism (tracing off must be byte-identical to the
   pre-tracing behaviour), zero allocation when disabled, and Chrome
   trace_event / summary JSON well-formedness via a minimal JSON parser. *)

module Trace = Dudetm_trace.Trace
module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module B = Dudetm_baselines
module W = Dudetm_workloads
module Ptm = B.Ptm_intf
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

let check = Alcotest.check

(* The tracer is a process-wide singleton: every test leaves it disabled
   and empty so suites can run in any order. *)
let with_tracer ?capacity f =
  Trace.enable ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

(* ----------------------------- ring buffer ---------------------------- *)

let test_ring_wrap () =
  with_tracer ~capacity:16 @@ fun () ->
  for i = 1 to 100 do
    Trace.counter ~cat:"t" "c" i
  done;
  check Alcotest.int "every emission counted" 100 (Trace.events ());
  check Alcotest.int "wrap drops the oldest" 84 (Trace.dropped ());
  let series = Trace.counter_series ~cat:"t" "c" in
  check Alcotest.int "retained window is the capacity" 16 (List.length series);
  check
    (Alcotest.list Alcotest.int)
    "the newest 16 values survive, in emission order"
    (List.init 16 (fun i -> 85 + i))
    (List.map snd series)

let test_ring_capacity_clamped () =
  with_tracer ~capacity:1 @@ fun () ->
  for i = 1 to 20 do
    Trace.instant ~cat:"t" "i" i
  done;
  check Alcotest.int "capacity clamps to 16" 4 (Trace.dropped ())

let test_ring_no_wrap_keeps_everything () =
  with_tracer ~capacity:64 @@ fun () ->
  for i = 1 to 40 do
    Trace.counter ~cat:"t" "c" i
  done;
  check Alcotest.int "nothing dropped below capacity" 0 (Trace.dropped ());
  check
    (Alcotest.list Alcotest.int)
    "full series retained"
    (List.init 40 (fun i -> i + 1))
    (List.map snd (Trace.counter_series ~cat:"t" "c"))

(* --------------------------- self-validation -------------------------- *)

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let assert_violation msgs needle =
  if not (List.exists (fun m -> has_substring m needle) msgs) then
    Alcotest.failf "no violation mentioning %S in [%s]" needle (String.concat "; " msgs)

let test_orphan_detected () =
  with_tracer @@ fun () ->
  Trace.span_end ~cat:"x" "nope";
  assert_violation (Trace.validate ()) "orphan"

let test_mismatch_detected () =
  with_tracer @@ fun () ->
  Trace.span_begin ~cat:"x" "a";
  Trace.span_end ~cat:"x" "b";
  assert_violation (Trace.validate ()) "mismatched"

let test_unclosed_detected () =
  with_tracer @@ fun () ->
  Trace.span_begin ~cat:"x" "leak";
  check Alcotest.int "one span open" 1 (Trace.open_span_count ());
  assert_violation (Trace.validate ()) "never closed"

let test_nonmonotone_detected () =
  with_tracer @@ fun () ->
  Trace.instant_at ~ts:100 ~tid:7 ~cat:"x" "a" 0;
  Trace.instant_at ~ts:50 ~tid:7 ~cat:"x" "b" 0;
  (* A different thread may lag: per-thread clocks are independent. *)
  Trace.instant_at ~ts:10 ~tid:8 ~cat:"x" "c" 0;
  assert_violation (Trace.validate ()) "non-monotone";
  check Alcotest.bool "exactly one violation class" true
    (List.length (List.filter (fun m -> has_substring m "non-monotone") (Trace.validate ()))
     >= 1)

let test_balanced_is_clean () =
  with_tracer @@ fun () ->
  Trace.span_begin ~cat:"a" "outer";
  Trace.span_begin ~cat:"a" "inner";
  Trace.span_end ~cat:"a" "inner";
  Trace.span_end ~cat:"a" "outer";
  check (Alcotest.list Alcotest.string) "clean" [] (Trace.validate ());
  check Alcotest.int "no open spans" 0 (Trace.open_span_count ())

(* Device utilization is the channel's busy time over the run.  Two threads
   persisting at once each pay the full latency, so the cycles they are
   charged sum to about twice the run; the channel itself is busy only for
   the bandwidth component, and validation flags a busy time beyond the
   run. *)
let test_device_utilization () =
  with_tracer @@ fun () ->
  let cfg = { Dudetm_nvm.Pmem_config.default with persist_latency = 1000 } in
  let d = Nvm.create ~label:"dev" cfg ~size:4096 in
  let total =
    Sched.run (fun () ->
        for i = 0 to 1 do
          ignore
            (Sched.spawn (Printf.sprintf "p%d" i) (fun () ->
                 Nvm.store_u64 d (i * 64) 1L;
                 Nvm.persist d ~off:(i * 64) ~len:8))
        done)
  in
  let dev = List.hd (Trace.nvm_dev_accts ()) in
  check Alcotest.bool "charged cycles exceed the run" true (dev.Trace.nd_cycles > total);
  check Alcotest.bool "busy time does not" true
    (dev.Trace.nd_busy > 0 && dev.Trace.nd_busy <= total);
  check (Alcotest.list Alcotest.string) "clean" [] (Trace.validate ~total_cycles:total ());
  Trace.nvm_transfer ~dev:"dev" ~bytes:0 ~cycles:0 ~busy:total;
  assert_violation (Trace.validate ~total_cycles:total ()) "device dev utilization"

(* ----------------------------- histograms ----------------------------- *)

let test_histogram_percentiles () =
  with_tracer @@ fun () ->
  Trace.sample ~cat:"p" "h" 100;
  Trace.sample ~cat:"p" "h" 100;
  Trace.sample ~cat:"p" "h" 100;
  Trace.sample ~cat:"p" "h" 5000;
  match Trace.phases () with
  | [ p ] ->
    check Alcotest.string "cat" "p" p.Trace.ph_cat;
    check Alcotest.string "name" "h" p.Trace.ph_name;
    check Alcotest.int "count" 4 p.Trace.ph_count;
    check Alcotest.int "exact total" 5300 p.Trace.ph_total;
    check Alcotest.int "exact max" 5000 p.Trace.ph_max;
    (* log2-bucket lower bounds: 100 lands in [64,128), 5000 in
       [4096,8192). *)
    check Alcotest.int "p50 bucket" 64 p.Trace.ph_p50;
    check Alcotest.int "p99 bucket" 4096 p.Trace.ph_p99
  | ps -> Alcotest.failf "expected one phase, got %d" (List.length ps)

let test_histogram_zero_and_sort () =
  with_tracer @@ fun () ->
  Trace.sample ~cat:"a" "small" 0;
  Trace.sample ~cat:"a" "small" 1;
  Trace.sample ~cat:"b" "big" 1000;
  (match Trace.phases () with
  | [ big; small ] ->
    check Alcotest.string "sorted by total desc" "big" big.Trace.ph_name;
    check Alcotest.int "0/1 cycles land in bucket 0" 0 small.Trace.ph_p50;
    check Alcotest.int "max of tiny phase" 1 small.Trace.ph_max
  | ps -> Alcotest.failf "expected two phases, got %d" (List.length ps));
  (* Span-derived durations feed the same histograms. *)
  Trace.span_begin ~cat:"c" "s";
  Trace.span_end ~cat:"c" "s";
  check Alcotest.bool "span created its phase" true
    (List.exists (fun p -> p.Trace.ph_cat = "c") (Trace.phases ()))

(* -------------------- a small DudeTM KV workload ---------------------- *)

let small_cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 20;
    nthreads = 3;
    vlog_capacity = 2048;
    plog_size = 1 lsl 15;
  }

(* Drive a mixed KV workload on DudeTM to completion (drain + stop) and
   return (total cycles, sorted counters, digest of the persisted image). *)
let run_kv_workload ?strategy ?(seed = 400) () =
  let ptm, d = B.Dude_ptm.Stm.ptm small_cfg in
  let kv = W.Kv.setup ptm W.Kv.Hash ~capacity:1024 in
  let nthreads = small_cfg.Config.nthreads in
  let done_ = Array.make nthreads false in
  let total =
    Sched.run ?strategy (fun () ->
        ptm.Ptm.start ();
        for th = 0 to nthreads - 1 do
          ignore
            (Sched.spawn
               (Printf.sprintf "w%d" th)
               (fun () ->
                 let rng = Rng.create (seed + th) in
                 for _ = 1 to 150 do
                   let key = Int64.of_int (1 + Rng.int rng 255) in
                   (match Rng.int rng 4 with
                   | 0 | 1 -> ignore (W.Kv.lookup kv ~thread:th ~key)
                   | 2 -> ignore (W.Kv.insert kv ~thread:th ~key ~value:(Rng.next_int64 rng))
                   | _ -> ignore (W.Kv.update kv ~thread:th ~key ~value:(Rng.next_int64 rng)));
                   Sched.advance 50
                 done;
                 done_.(th) <- true))
        done;
        Sched.wait_until ~label:"workers" (fun () -> Array.for_all Fun.id done_);
        ptm.Ptm.drain ();
        ptm.Ptm.stop ())
  in
  let nvm = D.nvm d in
  let image = Nvm.persisted_bytes nvm 0 (Nvm.size nvm) in
  (total, List.sort compare (ptm.Ptm.counters ()), Digest.bytes image)

(* ------------------- invariants under random schedules ---------------- *)

let test_invariants_under_random_schedules () =
  (* Seeded random preemption reorders Perform / Persist / Reproduce
     arbitrarily, and the end-of-run daemon kill unwinds mid-work-unit:
     spans must still balance on every schedule. *)
  List.iter
    (fun seed ->
      with_tracer @@ fun () ->
      ignore (run_kv_workload ~strategy:(Sched.random_priority ~seed) ());
      (match Trace.validate () with
      | [] -> ()
      | v -> Alcotest.failf "seed %d: %s" seed (String.concat "; " v));
      check Alcotest.int "no spans left open" 0 (Trace.open_span_count ());
      check Alcotest.bool "trace saw the pipeline" true
        (List.exists (fun p -> p.Trace.ph_cat = "perform") (Trace.phases ())))
    [ 1; 2; 3; 4; 5 ]

let test_invariants_default_schedule () =
  with_tracer @@ fun () ->
  ignore (run_kv_workload ());
  check (Alcotest.list Alcotest.string) "clean" [] (Trace.validate ());
  (* The canonical phases all fired. *)
  let keys = List.map (fun p -> p.Trace.ph_cat ^ "." ^ p.Trace.ph_name) (Trace.phases ()) in
  List.iter
    (fun k ->
      if not (List.mem k keys) then
        Alcotest.failf "phase %s missing from [%s]" k (String.concat ", " keys))
    [ "perform.tx"; "tm.attempt"; "persist.flush"; "reproduce.replay" ]

(* ----------------------- disabled-mode determinism -------------------- *)

let test_disabled_tracing_is_invisible () =
  (* The pinned property from trace.mli: tracing is observation only, so a
     run with tracing enabled is cycle- and byte-identical to the same run
     with tracing disabled — same simulated duration, same stats counters,
     same final persisted image. *)
  Trace.disable ();
  Trace.reset ();
  let total_off, counters_off, digest_off = run_kv_workload () in
  let total_on, counters_on, digest_on =
    with_tracer @@ fun () -> run_kv_workload ()
  in
  check Alcotest.int "identical simulated duration" total_off total_on;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "identical stats counters" counters_off counters_on;
  check Alcotest.string "identical persisted image" (Digest.to_hex digest_off)
    (Digest.to_hex digest_on);
  (* And a second disabled run replays exactly, pinning determinism of the
     baseline itself. *)
  let total_off2, counters_off2, digest_off2 = run_kv_workload () in
  check Alcotest.int "disabled rerun duration" total_off total_off2;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "disabled rerun counters" counters_off counters_off2;
  check Alcotest.string "disabled rerun image" (Digest.to_hex digest_off)
    (Digest.to_hex digest_off2)

let test_zero_allocation_when_disabled () =
  Trace.disable ();
  Trace.reset ();
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Trace.span_begin ~cat:"x" "y";
    Trace.span_end ~cat:"x" "y";
    Trace.instant ~cat:"x" "i" i;
    Trace.counter ~cat:"x" "c" i;
    Trace.sample ~cat:"x" "s" i;
    Trace.nvm_transfer ~dev:"dev" ~bytes:i ~cycles:i ~busy:i
  done;
  let delta = Gc.minor_words () -. before in
  (* Allow a few words for the Gc.minor_words float boxes themselves; the
     60k emitter calls must contribute nothing. *)
  if delta > 16.0 then
    Alcotest.failf "disabled emitters allocated %.0f minor words" delta

(* --------------------------- JSON well-formedness --------------------- *)

(* Minimal JSON parser — objects, arrays, strings (with escapes), numbers,
   booleans, null.  Just enough to prove the exports are well-formed
   without a JSON library dependency. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      then begin
        advance ();
        skip_ws ()
      end
    in
    let expect c =
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            for _ = 1 to 4 do
              advance ()
            done;
            Buffer.add_char b '?'
          | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
          advance ();
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && numchar s.[!pos] do
        advance ()
      done;
      if !pos = start then raise (Bad (Printf.sprintf "bad number at %d" start));
      Num (float_of_string (String.sub s start (!pos - start)))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              members ((key, v) :: acc)
            | '}' ->
              advance ();
              Obj (List.rev ((key, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "bad object char %c" c))
          in
          members []
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              elems (v :: acc)
            | ']' ->
              advance ();
              Arr (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "bad array char %c" c))
          in
          elems []
        end
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad (Printf.sprintf "trailing input at %d" !pos));
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

let test_chrome_export_well_formed () =
  with_tracer @@ fun () ->
  ignore (run_kv_workload ());
  let doc =
    match Json.parse (Trace.to_chrome_json ()) with
    | doc -> doc
    | exception Json.Bad msg -> Alcotest.failf "chrome export is not valid JSON: %s" msg
  in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  check Alcotest.bool "trace is non-empty" true (List.length events > 100);
  let begins = ref 0 and ends = ref 0 and metas = ref 0 in
  List.iter
    (fun e ->
      (match Json.member "pid" e with
      | Some (Json.Num 1.0) -> ()
      | _ -> Alcotest.fail "event missing pid 1");
      (match Json.member "tid" e with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "event missing tid");
      match Json.member "ph" e with
      | Some (Json.Str "B") -> incr begins
      | Some (Json.Str "E") -> incr ends
      | Some (Json.Str "M") -> incr metas
      | Some (Json.Str ("i" | "C")) -> ()
      | _ -> Alcotest.fail "event with unexpected ph")
    events;
  (* Nothing dropped at this size, and the trace validated clean, so the
     exported stream is balanced. *)
  check Alcotest.int "no drops" 0 (Trace.dropped ());
  check Alcotest.int "begin/end balanced in export" !begins !ends;
  check Alcotest.bool "thread-name metadata present" true (!metas >= 4)

let test_summary_export_well_formed () =
  with_tracer @@ fun () ->
  let total = match run_kv_workload () with t, _, _ -> t in
  let doc =
    match Json.parse (Trace.summary_json ~total_cycles:total ()) with
    | doc -> doc
    | exception Json.Bad msg -> Alcotest.failf "summary is not valid JSON: %s" msg
  in
  (match Json.member "phases" doc with
  | Some (Json.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "no phases");
  (match Json.member "nvm" doc with
  | Some (Json.Arr accts) ->
    check Alcotest.bool "persist daemon attributed" true
      (List.exists
         (fun a ->
           match (Json.member "thread" a, Json.member "utilization" a) with
           | Some (Json.Str name), Some (Json.Num u) ->
             String.length name >= 7 && String.sub name 0 7 = "persist" && u > 0.0 && u <= 1.0
           | _ -> false)
         accts)
  | _ -> Alcotest.fail "no nvm accounting");
  (match Json.member "ring_occupancy" doc with
  | Some (Json.Arr occ) ->
    check Alcotest.bool "ring occupancy series present" true (List.length occ > 0)
  | _ -> Alcotest.fail "no ring_occupancy");
  match Json.member "violations" doc with
  | Some (Json.Arr []) -> ()
  | _ -> Alcotest.fail "violations not empty"

let test_escaping () =
  with_tracer @@ fun () ->
  Trace.instant ~cat:"we\"ird" "na\\me\n" 1;
  match Json.parse (Trace.to_chrome_json ()) with
  | _ -> ()
  | exception Json.Bad msg -> Alcotest.failf "escaping broke the export: %s" msg

let suite =
  [
    Alcotest.test_case "ring wrap keeps the newest window" `Quick test_ring_wrap;
    Alcotest.test_case "ring capacity clamps to 16" `Quick test_ring_capacity_clamped;
    Alcotest.test_case "ring below capacity keeps everything" `Quick
      test_ring_no_wrap_keeps_everything;
    Alcotest.test_case "orphan span end detected" `Quick test_orphan_detected;
    Alcotest.test_case "mismatched span end detected" `Quick test_mismatch_detected;
    Alcotest.test_case "unclosed span detected" `Quick test_unclosed_detected;
    Alcotest.test_case "non-monotone timestamps detected" `Quick test_nonmonotone_detected;
    Alcotest.test_case "balanced trace validates clean" `Quick test_balanced_is_clean;
    Alcotest.test_case "device utilization is channel busy time" `Quick
      test_device_utilization;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram edge buckets and sorting" `Quick
      test_histogram_zero_and_sort;
    Alcotest.test_case "span invariants under random schedules" `Slow
      test_invariants_under_random_schedules;
    Alcotest.test_case "pipeline phases on the default schedule" `Quick
      test_invariants_default_schedule;
    Alcotest.test_case "disabled tracing is invisible" `Slow
      test_disabled_tracing_is_invisible;
    Alcotest.test_case "zero allocation when disabled" `Quick
      test_zero_allocation_when_disabled;
    Alcotest.test_case "chrome export is well-formed" `Quick test_chrome_export_well_formed;
    Alcotest.test_case "summary export is well-formed" `Quick
      test_summary_export_well_formed;
    Alcotest.test_case "json escaping of hostile names" `Quick test_escaping;
  ]
