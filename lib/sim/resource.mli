(** Serialized bandwidth resource.

    Models a shared channel (the NVM write path) on which transfers are
    serialized: a transfer occupies the channel for [bytes * cycles_per_byte]
    cycles starting no earlier than the previous transfer finished.  A fixed
    per-operation latency may overlap other transfers' latency but not the
    channel occupancy, matching the paper's
    [max(latency, size / bandwidth)] persist-cost formula (Section 5.1). *)

type t

val create : cycles_per_byte:float -> t

val create_gbps : float -> t
(** [create_gbps bw] is a channel of [bw] GB/s at the nominal clock. *)

val cycles_per_byte : t -> float

val transfer : t -> now:int -> bytes:int -> latency:int -> int
(** [transfer r ~now ~bytes ~latency] books a transfer of [bytes] starting at
    simulated time [now] and returns the number of cycles the caller must
    {!Sched.advance}: the transfer completes at
    [max now free_at + max latency (bytes * cpb)], with the channel itself
    busy only for the bandwidth component. *)

val busy_until : t -> int
(** Time at which the channel becomes free. *)

val reset : t -> unit
(** Forget all bookings (used when restarting an experiment). *)

val total_bytes : t -> int
(** Total bytes ever transferred through this channel. *)

val busy_cycles : t -> int
(** Cycles the channel has been occupied: the bandwidth component of every
    transfer, never its latency.  Bookings never overlap, so over any run
    this is at most the run's length. *)
