(* Sibling set of one cross-shard transaction: [Pending] between the global
   ID draw and commit completion (blocks the frontier so a fragment whose
   record races ahead of registration still waits); [Sealed] once every
   fragment's local transaction ID is known. *)
type set =
  | Pending
  | Sealed of (int * int) list (* (shard, tid) *)

type t = {
  durable : int -> int;
  reg : (int, set) Hashtbl.t;  (* gtid -> sibling set, > frontier *)
  mutable last : int;  (* last drawn gtid *)
  mutable frontier : int;  (* GF: all sets <= this are fully durable *)
  above : (int * int) list array;
      (* per shard: (gtid, tid) of its sealed fragments with gtid > frontier *)
}

let create ~nshards ~durable =
  { durable; reg = Hashtbl.create 64; last = 0; frontier = 0; above = Array.make nshards [] }

let draw t =
  let g = t.last + 1 in
  t.last <- g;
  Hashtbl.replace t.reg g Pending;
  g

let seal t g frags =
  Hashtbl.replace t.reg g (Sealed frags);
  List.iter (fun (s, tid) -> t.above.(s) <- (g, tid) :: t.above.(s)) frags

let restart t g =
  t.last <- g;
  t.frontier <- g

let last t = t.last

let frontier t = t.frontier

let rec frags_durable t = function
  | [] -> true
  | (s, tid) :: rest -> t.durable s >= tid && frags_durable t rest

(* Is set [g] fully durable?  A gtid absent from the registry was pruned at
   a frontier advance, so it is already known durable. *)
let set_durable t g =
  match Hashtbl.find t.reg g with
  | Pending -> false
  | Sealed frags -> frags_durable t frags
  | exception Not_found -> true

let rec frontier_from t g = if g < t.last && set_durable t (g + 1) then frontier_from t (g + 1) else g

let pure_frontier t = frontier_from t t.frontier

let rec durable_between t lo hi = lo > hi || (set_durable t lo && durable_between t (lo + 1) hi)

let is_durable_upto t g = durable_between t (t.frontier + 1) g

let advance t =
  let gf = pure_frontier t in
  if gf > t.frontier then begin
    for g = t.frontier + 1 to gf do
      Hashtbl.remove t.reg g
    done;
    t.frontier <- gf;
    Array.iteri (fun s l -> t.above.(s) <- List.filter (fun (g, _) -> g > gf) l) t.above
  end

let rec cut_below_open gf acc = function
  | [] -> acc
  | (g, tid) :: rest -> cut_below_open gf (if g > gf && tid - 1 < acc then tid - 1 else acc) rest

(* A fragment beyond GF can still be discarded by the recovery vote
   (directly, or by the contiguity cascade of an earlier incomplete set), so
   nothing at or above it may be acknowledged yet. *)
let effective t s = cut_below_open (pure_frontier t) (t.durable s) t.above.(s)
