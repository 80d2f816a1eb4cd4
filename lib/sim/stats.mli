(** Named integer counters and latency recorders for experiments. *)

type t

val create : unit -> t

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val get : t -> string -> int
(** 0 for counters never touched. *)

val reset : t -> unit
(** Zero every counter.  Cells resolved by {!counter} stay valid. *)

type cell
(** One counter, resolved once so a hot path bumps it without a lookup. *)

val counter : t -> string -> cell
(** [counter t name] resolves [name]'s cell.  A resolved counter that is
    never bumped stays absent from {!to_list}. *)

val bump : cell -> unit
(** Add 1, like {!incr} on the counter's name. *)

val to_list : t -> (string * int) list
(** Counters sorted by name. *)

(** Latency sample recorder with percentile queries. *)
module Latency : sig
  type r

  val create : unit -> r

  val record : r -> int -> unit
  (** Record one latency sample, in cycles. *)

  val count : r -> int

  val percentile : r -> float -> int
  (** [percentile r p] with [p] in [\[0,100\]]; 0 when empty. *)

  val mean : r -> float

  val log2_bucket : int -> int
  (** Bucket index for one sample: 0 for values [<= 1], else
      [floor (log2 v)]. *)

  val log2_histogram : r -> (int * int) list
  (** Sparse log2 histogram of the recorded samples: [(bucket, count)]
      pairs in increasing bucket order, where bucket [b] covers
      [\[2^b, 2^(b+1))] cycles.  Empty buckets are omitted. *)

  val reset : r -> unit
end
