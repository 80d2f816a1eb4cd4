(** The global cross-shard frontier GF and the vector watermark it cuts.

    Each cross-shard transaction draws a dense global ID (gtid) and
    registers its sibling set: [Pending] from the draw until every fragment
    has committed, then sealed with each fragment's [(shard, tid)].  GF is
    the largest [g] such that every set with gtid [<= g] is sealed and has
    all its fragments durable on their own shards.  A shard's effective
    (acknowledgeable) durable ID is its engine durable ID cut just below
    its first sealed fragment beyond GF.

    The pure readers are polled by scheduler wait predicates on every step,
    so they allocate nothing and look only at the sets above the published
    frontier: the registry holds exactly those, and each shard keeps the
    list of its own sealed fragments above it. *)

type t

val create : nshards:int -> durable:(int -> int) -> t
(** An empty registry at frontier 0.  [durable s] reads shard [s]'s
    engine durable ID; it must be pure. *)

val draw : t -> int
(** Draw the next gtid and register its set as [Pending]. *)

val seal : t -> int -> (int * int) list -> unit
(** [seal t g frags] marks set [g] complete with its fragments
    [(shard, tid)]. *)

val restart : t -> int -> unit
(** After recovery: every set at or below [g] is durable, and fresh draws
    continue after [g]. *)

val last : t -> int
(** The largest gtid drawn so far. *)

val frontier : t -> int
(** GF as last published by {!advance}. *)

val advance : t -> unit
(** Publish GF and prune the registry and the per-shard fragment lists
    below it.  Impure: never call from a wait predicate. *)

(** {1 Pure readers (safe in wait predicates)} *)

val pure_frontier : t -> int
(** GF as of now. *)

val is_durable_upto : t -> int -> bool
(** Is every set in (published frontier, [g]] durable?  The engines'
    replay gate for a fragment of set [g]. *)

val effective : t -> int -> int
(** Effective durable ID of shard [s]. *)
