(** The campaign kernel: the machinery every [dudetm check] campaign
    shares.

    A campaign cuts power at persist boundaries of a system under test and
    holds the recovered state to an oracle.  Only the scenario (devices,
    setup, workload) and the oracle are campaign-specific; this module owns
    the rest:

    - the seeded-mutant name table behind [--mutate];
    - the exploration budget and its one environment reader;
    - one cut helper that arms the persist hook on a set of devices, counts
      boundaries across them, cuts power at a chosen one and classifies how
      the run ended;
    - one boundary sweep — clean run, count boundaries, cut at each sampled
      boundary, optionally re-cut the recovered system two deep;
    - one failure record, one report and one replay-line format. *)

module Config = Dudetm_core.Config
module Nvm = Dudetm_nvm.Nvm

exception Crash_now
(** Raised from the persist hook to cut power at an exact boundary. *)

(** {1 Campaigns and mutants} *)

type campaign =
  | Engine  (** schedule × crash exploration of one system ([dudetm check]) *)
  | Media
  | Recovery
  | Daemons
  | Shards
  | Batch
  | Replica
  | Migrate
  | Snapshot
  | Serve

val names : (campaign * string) list
(** Every campaign but {!Engine} with its CLI flag name ([--media], ...). *)

val name : campaign -> string
(** ["engine"] for {!Engine}, the flag name otherwise. *)

val mutants : (string * Config.fault) list
(** Every seeded engine mutant ([--mutate] value) except [No_fault]. *)

val mutant_name : Config.fault -> string
(** Inverse of {!mutants}; ["none"] for [No_fault]. *)

(** {1 Budget} *)

type level =
  | Quick  (** the bounded tier-1 budget, environment ignored ([--quick]) *)
  | Scaled of int  (** the tier-1 budget times [n] *)
  | Deep  (** the deep budget ([--deep]) *)

val env_level : unit -> level
(** [DUDETM_CHECK_DEEP=1] gives {!Deep}, [DUDETM_CHECK_BUDGET=n] (n > 1)
    gives [Scaled n], anything else [Scaled 1]. *)

val scale : level -> int
(** Budget multiplier: 1 for {!Quick}, [n] for [Scaled n], 10 for {!Deep}. *)

val sample_sites : s:int -> n:int -> int list
(** Up to [n] boundaries out of [1..s], evenly spread, ascending, always
    covering both ends. *)

(** {1 Failures and reports} *)

type failure = {
  campaign : campaign;
  fault : Config.fault;  (** seeded mutant in force *)
  args : (string * string) list;
      (** the failing case's coordinates: CLI flag and value *)
  cuts : int list;
      (** persist boundaries cut, outermost first ([--crash-at], [--crash2],
          [--crash3]); 0 = no cut at that depth.  Empty for a failure of a
          whole sweep (the clean run, or a vacuous sweep). *)
  reason : string;
}

type report =
  | Pass of { runs : int; boundaries : int; tallies : (string * int) list }
      (** [boundaries]: persist boundaries seen by the counted runs *)
  | Fail of failure

val replay_line : failure -> string
(** [dudetm check [--CAMPAIGN] [--mutate M] [FLAG VALUE]... [--crash-at K]
    [--crash2 K] [--crash3 K]] — running it reproduces the failure. *)

val cut_flags : string list
(** [["--crash-at"; "--crash2"; "--crash3"]]. *)

val cuts_of : int option list -> int list
(** Cut list from optional boundaries per depth (trailing [None]s dropped,
    inner ones become 0). *)

val cut_at : int list -> int -> int option
(** [cut_at cuts d]: the boundary cut at depth [d], if any. *)

(** {1 Cutting power} *)

type cutter = {
  devices : Nvm.t list;
  mutable at : int option;  (** boundary to cut at, counted across devices *)
  mutable seen : int;  (** boundaries seen since creation or the last reset *)
  sample : unit -> unit;
      (** called at every boundary before the cut fires: record what was
          acknowledged when the power went out *)
}

val cutter : ?sample:(unit -> unit) -> ?at:int -> Nvm.t list -> cutter

val arm : cutter -> unit
(** Install the counting hook on every device. *)

val disarm : cutter -> unit

type 'a ended = Completed of 'a | Cut | Deadlock of string | Raised of exn

val cut_run : ?arm_now:bool -> cutter -> (unit -> 'a) -> 'a ended
(** Run [f] with the cutter armed (from the start unless [arm_now] is
    false: then [f] arms it itself, e.g. after seeding), disarm, and
    classify the ending.  The devices are not crashed. *)

val error : who:string -> _ ended -> string option
(** [Some] diagnostic for {!Deadlock} and {!Raised} ([who] names the
    raiser), [None] otherwise. *)

(** {1 Sweeping boundaries} *)

type case = {
  verdict : string option;  (** the oracle's complaint, if any *)
  seen : int list;  (** boundaries seen per life, first life first *)
  tallies : (string * int) list;  (** campaign-specific counts *)
}

type scenario = {
  campaign : campaign;
  fault : Config.fault;
  args : (string * string) list;  (** coordinates recorded in failures *)
  sites : int;  (** boundaries cut per sweep *)
  two_deep : int option;
      (** [Some d]: re-cut the recovered system after [max 3 (sites / d)]
          first cuts, at as many boundaries each *)
  run : int list -> case;  (** one run with these cuts ([[]]: clean) *)
}

val sweep : ?log:(string -> unit) -> scenario list -> report
(** For each scenario in turn: the clean run counts boundaries, then one
    run per sampled boundary, then the two-deep pass; stops at the first
    failure.  Runs, boundaries of the clean runs, and tallies of passing
    runs add up across scenarios. *)

val replay : scenario -> int list -> report
(** Exactly one run with these cuts. *)
