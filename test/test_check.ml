(* Tier-1 smoke for the systematic crash/schedule checker (lib/check), plus
   the mutation self-test: the checker must stay quiet on the real engine and
   both baselines, and every seeded mutant must be caught by its campaign. *)

module Check = Dudetm_check.Check
module Campaign = Dudetm_check.Campaign
module Config = Dudetm_core.Config

(* A small explicit budget so runtest stays fast; the env-sensitive
   [tier1_budget] is exercised separately below. *)
let smoke_budget : Check.budget =
  {
    crash_sites = 25;
    sched_seeds = 2;
    crash_sites_per_seed = 6;
    exhaustive_runs = 12;
    exhaustive_depth = 5;
  }

let expect_pass name sut =
  let wls = Check.workloads_for sut ~threads:3 ~txs:2 in
  match Check.check_system ~budget:smoke_budget sut wls with
  | Campaign.Pass { runs; boundaries; _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: explored some runs" name)
      true
      (runs > 0 && boundaries > 0)
  | Campaign.Fail f ->
    Alcotest.failf "%s: checker found a violation: %s\n  replay: %s" name f.reason
      (Campaign.replay_line f)

let test_clean_dude () = expect_pass "dude" (Check.dude ())

let test_clean_combine () = expect_pass "dude-combine" (Check.dude_combine ())

let test_clean_htm () = expect_pass "dude-htm" (Check.dude_htm ())

let test_clean_mnemosyne () = expect_pass "mnemosyne" (Check.mnemosyne ())

let test_clean_nvml () = expect_pass "nvml" (Check.nvml ())

(* -------------------------------------------------------------------- *)
(* Mutant catch matrix                                                    *)
(* -------------------------------------------------------------------- *)

(* A checker that cannot catch a seeded bug is not checking anything.
   Every mutant, the campaign that catches it, and the exact replay line of
   its first (shrunk) failure under the bounded budget.  For each row the
   campaign must fail with that line, re-running the failure's own
   coordinates must fail again with the same reason, and the unmutated
   engine must pass those same coordinates (no oracle false positive). *)
let matrix =
  let open Campaign in
  let engine = [ ("--system", "dude") ] in
  [
    ( "early durable publish", Config.Early_durable_publish, Engine, engine,
      "dudetm check --mutate early-durable --system dude --workload counter --threads 3 --txs \
       1 --sched default" );
    ( "unfenced reproduce", Config.Unfenced_reproduce, Engine, engine,
      "dudetm check --mutate unfenced-reproduce --system dude --workload counter --threads 3 \
       --txs 1 --sched seed:1" );
    ( "skip crc verify", Config.Skip_crc_verify, Media, [],
      "dudetm check --media --mutate skip-crc-verify --media-seed 1 --faults heap" );
    ( "skip recovery journal", Config.Skip_recovery_journal, Recovery, [],
      "dudetm check --recovery --mutate skip-recovery-journal --leg attach --crash2 7" );
    ( "skip fragment gate", Config.Skip_fragment_gate, Shards, [],
      "dudetm check --shards --mutate skip-fragment-gate --shard-count 3 --txs 10 --scenario \
       plain --crash-at 169" );
    ( "skip fragment gate (combined)", Config.Skip_fragment_gate, Shards,
      [ ("--scenario", "combined") ],
      "dudetm check --shards --mutate skip-fragment-gate --shard-count 3 --txs 10 --scenario \
       combined --crash-at 112" );
    ( "skip batch seal", Config.Skip_batch_seal, Batch, [],
      "dudetm check --batch --mutate skip-batch-seal --txs 12 --crash-at 1" );
    ( "skip quorum gate", Config.Skip_quorum_gate, Replica, [],
      "dudetm check --replica --mutate skip-quorum-gate --replicas 3 --txs 10 --scenario clean \
       --crash-at 8" );
    ( "skip handoff seal", Config.Skip_handoff_seal, Migrate, [],
      "dudetm check --migrate --mutate skip-handoff-seal --crash-at 171" );
    ( "skip snapshot validate", Config.Skip_snapshot_validate, Snapshot, [],
      "dudetm check --snapshot --mutate skip-snapshot-validate --txs 12" );
    ( "skip admission gate", Config.Skip_admission_gate, Serve, [],
      "dudetm check --serve --mutate skip-admission-gate --txs 10 --crash-at 1" );
  ]

(* Each row's campaign runs once, whichever test needs its failure first. *)
let caught =
  List.map
    (fun (label, fault, campaign, args, _) ->
      ( label,
        lazy
          (match Check.run ~fault ~level:Campaign.Quick ~args campaign with
          | Campaign.Fail f -> f
          | Campaign.Pass _ ->
            Alcotest.failf "%s: seeded bug escaped the %s campaign" label
              (Campaign.name campaign)) ))
    matrix

let rerun ?(fault = Config.No_fault) (f : Campaign.failure) =
  Check.run ~fault ~level:Campaign.Quick ~args:f.args ~cuts:f.cuts f.campaign

let test_mutant_caught (label, fault, campaign, _, line) () =
  let f = Lazy.force (List.assoc label caught) in
  Alcotest.(check string)
    (label ^ ": campaign")
    (Campaign.name campaign) (Campaign.name f.campaign);
  Alcotest.(check string) (label ^ ": replay line") line (Campaign.replay_line f);
  match rerun ~fault f with
  | Campaign.Fail f' ->
    Alcotest.(check string) (label ^ ": same reason on replay") f.reason f'.reason
  | Campaign.Pass _ -> Alcotest.failf "%s: failure did not replay: %s" label line

let test_mutant_sites_clean_on_real_engine () =
  List.iter
    (fun (label, f) ->
      match rerun (Lazy.force f) with
      | Campaign.Pass _ -> ()
      | Campaign.Fail f' ->
        Alcotest.failf "%s: real engine fails the mutant's coordinates: %s" label f'.reason)
    caught

(* One name table serves --mutate and the replay line: every fault has a
   name that maps back to it. *)
let test_mutant_names_roundtrip () =
  let faults =
    Config.
      [
        Early_durable_publish;
        Unfenced_reproduce;
        Skip_crc_verify;
        Skip_recovery_journal;
        Skip_fragment_gate;
        Skip_batch_seal;
        Skip_quorum_gate;
        Skip_handoff_seal;
        Skip_snapshot_validate;
        Skip_admission_gate;
      ]
  in
  Alcotest.(check int) "ten mutants" (List.length faults) (List.length Campaign.mutants);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Campaign.mutant_name f ^ " round-trips")
        true
        (List.assoc (Campaign.mutant_name f) Campaign.mutants = f))
    faults

(* A flag the campaign does not declare, or a cut deeper than it re-cuts,
   is a usage error rather than silently ignored. *)
let test_undeclared_flags_rejected () =
  let rejects what args cuts campaign =
    match Check.run ~args ~cuts campaign with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "--leg with --shards" [ ("--leg", "scrub") ] [] Campaign.Shards;
  rejects "--crash2 with --shards" [] [ 4; 4 ] Campaign.Shards;
  rejects "--txs with --migrate" [ ("--txs", "5") ] [] Campaign.Migrate

(* sched_spec round-trips through its textual form (the replay one-liner
   depends on this). *)
let test_sched_spec_roundtrip () =
  List.iter
    (fun s ->
      let s' = Check.sched_of_string (Check.sched_to_string s) in
      Alcotest.(check string)
        "sched round-trip"
        (Check.sched_to_string s)
        (Check.sched_to_string s'))
    [ Check.Default; Check.Seed 42; Check.Prefix [ 1; 0; 2 ]; Check.Prefix [] ]

(* tier1_budget honours the DUDETM_CHECK_BUDGET multiplier; --quick
   ignores it for every campaign. *)
let test_budget_knob () =
  let base = Check.quick_budget in
  Unix.putenv "DUDETM_CHECK_BUDGET" "2";
  let scaled = Check.tier1_budget () in
  let env = Campaign.env_level () in
  Unix.putenv "DUDETM_CHECK_BUDGET" "";
  Alcotest.(check int) "crash sites scaled" (base.Check.crash_sites * 2)
    scaled.Check.crash_sites;
  Alcotest.(check int) "exhaustive runs scaled"
    (base.Check.exhaustive_runs * 2) scaled.Check.exhaustive_runs;
  Alcotest.(check int) "layer campaigns scaled" 2 (Campaign.scale env);
  Alcotest.(check int) "quick ignores the knob" 1 (Campaign.scale Campaign.Quick);
  let plain = Check.tier1_budget () in
  Alcotest.(check int) "knob cleared" base.Check.crash_sites
    plain.Check.crash_sites

(* count_sites and replay agree on the crash-boundary space: replaying at a
   boundary beyond the count is still well-defined (no crash fires). *)
let test_replay_past_last_site () =
  let sut = Check.dude () in
  let wl = Check.counter ~threads:2 ~txs:1 in
  let sites = Check.count_sites sut wl ~sched:Check.Default in
  Alcotest.(check bool) "some sites" true (sites > 0);
  match Check.replay sut wl ~sched:Check.Default ~crash:(Some (sites + 10)) with
  | None -> ()
  | Some reason -> Alcotest.failf "quiescent run past last site failed: %s" reason

(* -------------------------------------------------------------------- *)
(* Clean engine under the layer campaigns                                 *)
(* -------------------------------------------------------------------- *)

let expect_campaign_pass ?args name campaign check =
  match Check.run ?args campaign with
  | Campaign.Pass { runs; boundaries; tallies } -> check ~runs ~boundaries ~tallies
  | Campaign.Fail f ->
    Alcotest.failf "clean engine failed the %s campaign: %s\n  %s" name f.reason
      (Campaign.replay_line f)

(* The clean engine under seeded corruption: every run either recovers
   fully or the loss is reported — never silently wrong data. *)
let test_media_clean_engine () =
  expect_campaign_pass ~args:[ ("--media-seeds", "2") ] "media" Campaign.Media
    (fun ~runs ~boundaries:_ ~tallies ->
      Alcotest.(check bool) "campaign ran and injected faults" true
        (runs > 0 && List.assoc "faults injected" tallies > 0))

(* The real engine survives power cuts at every sampled persist boundary
   during cross-shard commits: no partial transfer, nothing acked lost. *)
let test_shards_clean_engine () =
  expect_campaign_pass "shards" Campaign.Shards (fun ~runs ~boundaries ~tallies:_ ->
      Alcotest.(check bool) "campaign explored boundaries" true (runs > 1 && boundaries > 0))

let suite =
  [
    Alcotest.test_case "clean: dude" `Quick test_clean_dude;
    Alcotest.test_case "clean: dude-combine" `Quick test_clean_combine;
    Alcotest.test_case "clean: dude-htm" `Quick test_clean_htm;
    Alcotest.test_case "clean: mnemosyne" `Quick test_clean_mnemosyne;
    Alcotest.test_case "clean: nvml" `Quick test_clean_nvml;
  ]
  @ List.map
      (fun ((label, _, _, _, _) as row) ->
        Alcotest.test_case ("mutant caught: " ^ label) `Quick (test_mutant_caught row))
      matrix
  @ [
      Alcotest.test_case "mutant triples pass on real engine" `Quick
        test_mutant_sites_clean_on_real_engine;
      Alcotest.test_case "mutant names round-trip" `Quick test_mutant_names_roundtrip;
      Alcotest.test_case "undeclared campaign flags rejected" `Quick
        test_undeclared_flags_rejected;
      Alcotest.test_case "sched spec round-trip" `Quick test_sched_spec_roundtrip;
      Alcotest.test_case "budget env knob" `Quick test_budget_knob;
      Alcotest.test_case "replay past last site is quiescent" `Quick
        test_replay_past_last_site;
      Alcotest.test_case "media campaign: clean engine never silently wrong" `Quick
        test_media_clean_engine;
      Alcotest.test_case "shard campaign: clean engine all-or-nothing" `Slow
        test_shards_clean_engine;
    ]
