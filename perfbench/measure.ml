(* Pure measurement arithmetic for the benchmark: exact percentiles with the
   sample-count rule, medians, the SLO-rate selection and the NVM traffic
   ratios.  Kept free of the simulator so the tests can pin each rule. *)

(* ----------------------------- samples ------------------------------ *)

(* A growable array of integer samples (simulated cycles).  Every sample is
   kept: percentiles are exact order statistics, never bucket bounds. *)
type samples = { mutable data : int array; mutable n : int }

let samples () = { data = Array.make 256 0; n = 0 }

let add s v =
  if s.n = Array.length s.data then begin
    let bigger = Array.make (2 * s.n) 0 in
    Array.blit s.data 0 bigger 0 s.n;
    s.data <- bigger
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n

let to_sorted s =
  let a = Array.sub s.data 0 s.n in
  Array.sort compare a;
  a

(* At least this many samples must lie strictly above the reported rank:
   a p99 needs >= 1000 samples, a p50 >= 20. *)
let min_beyond = 10

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it.  [None] when fewer than [min_beyond] samples
   lie beyond that rank, so a reported tail always has a real tail. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then None
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
    let rank = min n rank in
    if n - rank < min_beyond then None else Some a.(rank - 1)
  end

let percentile s p = percentile_sorted (to_sorted s) p

(* Median of a list of host measurements (mean of the two middle values
   for an even count). *)
let median = function
  | [] -> invalid_arg "Measure.median: no values"
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --------------------------- SLO selection --------------------------- *)

(* One fixed offered rate of an open-loop sweep, as measured. *)
type rate_point = {
  rate_mtps : float;  (* offered rate, M requests per simulated second *)
  goodput_mtps : float;  (* successful replies per simulated second, timed window *)
  ack_p99_us : float option;  (* None: too few samples to state a p99 *)
  shed : int;  (* requests refused by admission control *)
  failed : int;  (* aborted or otherwise unacknowledged requests *)
  backlog_grew : bool;  (* outstanding work grew across the timed phase *)
}

let qualifies ~limit_us p =
  match p.ack_p99_us with
  | None -> false
  | Some v -> v <= limit_us && p.shed = 0 && p.failed = 0 && not p.backlog_grew

(* The highest fixed rate meeting the limit with nothing shed or failed
   and no growing backlog, if any. *)
let slo_point ~limit_us points =
  List.fold_left
    (fun best p ->
      match best with
      | Some b when b.rate_mtps >= p.rate_mtps -> best
      | _ -> if qualifies ~limit_us p then Some p else best)
    None points

(* The goodput measured at that rate (it varies with the seed where the
   offered rate does not); 0 when no rate qualifies. *)
let slo_rate ~limit_us points =
  match slo_point ~limit_us points with Some p -> p.goodput_mtps | None -> 0.0

(* Backlog growth: outstanding work (due but not yet replied) at the end of
   the timed phase exceeds that at its start by more than the clients'
   combined window, which bounded window jitter cannot explain. *)
let backlog_grew ~at_start ~at_end ~window = at_end - at_start > window

(* ------------------------------ NVM --------------------------------- *)

(* NVM bytes persisted (log, home and metadata, all devices) per byte of
   user payload written. *)
let write_amp ~nvm_bytes ~user_bytes =
  if user_bytes <= 0 then invalid_arg "Measure.write_amp: no user bytes";
  float_of_int nvm_bytes /. float_of_int user_bytes

(* Share of a device's write bandwidth used over [cycles] of simulated
   time: bytes / (bandwidth x seconds).  Persists are serialized on the
   bandwidth channel, so this cannot exceed 1 for bytes flushed within the
   window. *)
let bw_util ~bytes ~gbps ~cycles ~ghz =
  if cycles <= 0 then invalid_arg "Measure.bw_util: empty window";
  let seconds = float_of_int cycles /. (ghz *. 1e9) in
  float_of_int bytes /. (gbps *. 1e9 *. seconds)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
