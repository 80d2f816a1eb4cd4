(** One-level page table mapping logical (persistent-heap) pages to shadow
    DRAM frames, with a clock eviction scan.

    Pure mapping bookkeeping; costs, pinning and data movement live in
    {!Shadow}. *)

type t

val create : pages:int -> frames:int -> t

val pages : t -> int

val frames : t -> int

val frame_index : t -> int -> int
(** [frame_index t page] is the frame backing [page], or [-1] if it is not
    resident.  Allocates nothing: every shadow access translates through
    it. *)

val page_of_frame : t -> int -> int option

val resident : t -> int
(** Number of mapped frames. *)

val map : t -> page:int -> frame:int -> unit
(** Requires [page] unmapped and [frame] free. *)

val unmap_frame : t -> int -> unit
(** Release the frame's mapping (page becomes non-resident, frame free). *)

val free_frame : t -> int option
(** Some frame with no mapping, if any. *)

val clock_victim : t -> skip:(int -> bool) -> int option
(** Next mapped frame under the clock hand with [skip frame = false]; the
    hand advances past examined frames.  [None] if every mapped frame is
    skipped. *)
