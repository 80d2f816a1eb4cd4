module Config = Dudetm_core.Config
module Nvm = Dudetm_nvm.Nvm
module Sched = Dudetm_sim.Sched

exception Crash_now

type campaign =
  | Engine
  | Media
  | Recovery
  | Daemons
  | Shards
  | Batch
  | Replica
  | Migrate
  | Snapshot
  | Serve

let names =
  [
    (Media, "media");
    (Recovery, "recovery");
    (Daemons, "daemons");
    (Shards, "shards");
    (Batch, "batch");
    (Replica, "replica");
    (Migrate, "migrate");
    (Snapshot, "snapshot");
    (Serve, "serve");
  ]

let name c = Option.value (List.assoc_opt c names) ~default:"engine"

let mutants =
  [
    ("early-durable", Config.Early_durable_publish);
    ("unfenced-reproduce", Config.Unfenced_reproduce);
    ("skip-crc-verify", Config.Skip_crc_verify);
    ("skip-recovery-journal", Config.Skip_recovery_journal);
    ("skip-fragment-gate", Config.Skip_fragment_gate);
    ("skip-batch-seal", Config.Skip_batch_seal);
    ("skip-quorum-gate", Config.Skip_quorum_gate);
    ("skip-handoff-seal", Config.Skip_handoff_seal);
    ("skip-snapshot-validate", Config.Skip_snapshot_validate);
    ("skip-admission-gate", Config.Skip_admission_gate);
  ]

let mutant_name = function
  | Config.No_fault -> "none"
  | f -> fst (List.find (fun (_, g) -> g = f) mutants)

type level = Quick | Scaled of int | Deep

let env_level () =
  if Sys.getenv_opt "DUDETM_CHECK_DEEP" = Some "1" then Deep
  else
    match Option.bind (Sys.getenv_opt "DUDETM_CHECK_BUDGET") int_of_string_opt with
    | Some m when m > 1 -> Scaled m
    | _ -> Scaled 1

let scale = function Quick -> 1 | Scaled m -> m | Deep -> 10

let sample_sites ~s ~n =
  if s <= 0 || n <= 0 then []
  else if s <= n then List.init s (fun i -> i + 1)
  else if n = 1 then [ 1 ]
  else List.sort_uniq compare (List.init n (fun i -> 1 + (i * (s - 1) / (n - 1))))

type failure = {
  campaign : campaign;
  fault : Config.fault;
  args : (string * string) list;
  cuts : int list;
  reason : string;
}

type report =
  | Pass of { runs : int; boundaries : int; tallies : (string * int) list }
  | Fail of failure

let cut_flags = [ "--crash-at"; "--crash2"; "--crash3" ]

let flags args = List.concat_map (fun (k, v) -> [ k; v ]) args

let replay_line (f : failure) =
  String.concat " "
    (("dudetm check" :: (if f.campaign = Engine then [] else [ "--" ^ name f.campaign ]))
    @ (if f.fault = Config.No_fault then [] else [ "--mutate"; mutant_name f.fault ])
    @ flags f.args
    @ List.concat
        (List.mapi
           (fun i k -> if k > 0 then [ List.nth cut_flags i; string_of_int k ] else [])
           f.cuts))

let cuts_of l =
  List.fold_right
    (fun c acc -> match (c, acc) with None, [] -> [] | c, _ -> Option.value c ~default:0 :: acc)
    l []

let cut_at cuts d = match List.nth_opt cuts d with Some k when k > 0 -> Some k | _ -> None

type cutter = {
  devices : Nvm.t list;
  mutable at : int option;
  mutable seen : int;
  sample : unit -> unit;
}

let cutter ?(sample = ignore) ?at devices = { devices; at; seen = 0; sample }

let arm c =
  let hook () =
    c.seen <- c.seen + 1;
    c.sample ();
    match c.at with Some k when k = c.seen -> raise Crash_now | _ -> ()
  in
  List.iter (fun n -> Nvm.set_persist_hook n (Some hook)) c.devices

let disarm c = List.iter (fun n -> Nvm.set_persist_hook n None) c.devices

type 'a ended = Completed of 'a | Cut | Deadlock of string | Raised of exn

let cut_run ?(arm_now = true) c f =
  if arm_now then arm c;
  let ended =
    match f () with
    | v -> Completed v
    | exception Crash_now -> Cut
    | exception Sched.Deadlock msg -> Deadlock msg
    | exception e -> Raised e
  in
  disarm c;
  ended

let error ~who = function
  | Completed _ | Cut -> None
  | Deadlock msg -> Some ("deadlock: " ^ msg)
  | Raised e -> Some (who ^ " raised " ^ Printexc.to_string e)

type case = { verdict : string option; seen : int list; tallies : (string * int) list }

type scenario = {
  campaign : campaign;
  fault : Config.fault;
  args : (string * string) list;
  sites : int;
  two_deep : int option;
  run : int list -> case;
}

exception Failed of failure

(* One run of [s]; a failing run ends the whole sweep. *)
let attempt (s : scenario) cuts =
  let c = s.run cuts in
  match c.verdict with
  | Some reason ->
    raise (Failed { campaign = s.campaign; fault = s.fault; args = s.args; cuts; reason })
  | None -> c

let add_tallies acc t = if acc = [] then t else List.map2 (fun (n, a) (_, b) -> (n, a + b)) acc t

let sweep ?(log = ignore) scenarios =
  let runs = ref 0 and boundaries = ref 0 and tallies = ref [] in
  let run s cuts =
    incr runs;
    let c = attempt s cuts in
    tallies := add_tallies !tallies c.tallies;
    c.seen
  in
  let sweep_one s =
    let label = String.concat " " (name s.campaign :: flags s.args) in
    log (label ^ ": clean run");
    let total = List.hd (run s []) in
    boundaries := !boundaries + total;
    let picks = sample_sites ~s:total ~n:s.sites in
    log
      (Printf.sprintf "%s: %d persist boundaries, cutting power at %d of them" label total
         (List.length picks));
    List.iter (fun k -> ignore (run s [ k ])) picks;
    Option.iter
      (fun d ->
        let n = max 3 (s.sites / d) in
        let firsts = sample_sites ~s:total ~n in
        log
          (Printf.sprintf "%s: two-deep, re-cutting recovery after %d first cuts" label
             (List.length firsts));
        List.iter
          (fun k1 ->
            let total2 = List.nth (run s [ k1 ]) 1 in
            List.iter (fun k2 -> ignore (run s [ k1; k2 ])) (sample_sites ~s:total2 ~n))
          firsts)
      s.two_deep
  in
  match List.iter sweep_one scenarios with
  | () -> Pass { runs = !runs; boundaries = !boundaries; tallies = !tallies }
  | exception Failed f -> Fail f

let replay s cuts =
  match attempt s cuts with
  | c -> Pass { runs = 1; boundaries = List.fold_left ( + ) 0 c.seen; tallies = c.tallies }
  | exception Failed f -> Fail f
