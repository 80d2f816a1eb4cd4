(** Striped versioned write-locks (TinySTM's lock array).

    Every aligned 64-bit word of the transactional address space hashes to a
    stripe.  A stripe's lock word is either a commit {e version} (timestamp
    of the last transaction that wrote it) or {e owned} by a running
    transaction identified by a unique attempt id. *)

type t

val create : ?bits:int -> unit -> t
(** [create ~bits ()] makes a table of [2^bits] stripes (default 20). *)

val stripes : t -> int

val stripe_of_addr : t -> int -> int
(** Map a byte address of an aligned word to its stripe. *)

val word : t -> int -> int
(** [word t stripe] is the stripe's lock word, read without allocating:
    decode it with {!owned} and {!value}. *)

val owned : int -> bool
(** Whether a lock word is owned by a running attempt (else it is free). *)

val value : int -> int
(** A lock word's payload: the version of the last committing writer if
    the stripe is free, the owning attempt's uid if it is owned. *)

val acquire : t -> stripe:int -> uid:int -> int option
(** Try to lock the stripe for attempt [uid].  Returns [Some v] (the
    previous version, needed to restore on abort) on success, [None] if the
    stripe is owned by another attempt.  Re-acquiring a stripe already owned
    by [uid] returns [None] — callers must check {!word} first. *)

val release_to : t -> stripe:int -> version:int -> unit
(** Unlock a stripe, installing [version] (commit) or restoring the saved
    pre-acquisition version (abort). *)
