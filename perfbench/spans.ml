(* Spans recorded by the benchmark around its own calls into each layer.

   A span has a name, a start and end on both clocks (simulated cycles and
   host nanoseconds), a parent span and a request id shared by every span
   of one request.  Spans live in memory until the run ends.  Reading the
   simulated clock is an effect the scheduler answers without yielding, so
   recording a span never moves simulated time: a traced run's simulated
   results equal the untraced run's, and only host time differs.

   A disabled store records nothing and [enter] returns [none]. *)

type t = {
  enabled : bool;
  sim_now : unit -> int;
  host_now : unit -> int;
  mutable names : string array;
  mutable parent : int array;
  mutable req : int array;
  mutable sim0 : int array;
  mutable sim1 : int array;
  mutable host0 : int array;
  mutable host1 : int array;
  mutable n : int;
}

let none = -1

let create ~enabled ~sim_now ~host_now =
  let cap = if enabled then 1024 else 0 in
  {
    enabled;
    sim_now;
    host_now;
    names = Array.make cap "";
    parent = Array.make cap none;
    req = Array.make cap 0;
    sim0 = Array.make cap 0;
    sim1 = Array.make cap 0;
    host0 = Array.make cap 0;
    host1 = Array.make cap 0;
    n = 0;
  }

let enabled t = t.enabled

let grow t =
  let cap = 2 * Array.length t.names in
  let g a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- g t.names "";
  t.parent <- g t.parent none;
  t.req <- g t.req 0;
  t.sim0 <- g t.sim0 0;
  t.sim1 <- g t.sim1 0;
  t.host0 <- g t.host0 0;
  t.host1 <- g t.host1 0

(* [name] should be a literal: the store keeps the string, not a copy.
   [sim0] backdates the start (a request timed from when it was due). *)
let enter t ?(parent = none) ?sim0 ~req name =
  if not t.enabled then none
  else begin
    if t.n = Array.length t.names then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.names.(id) <- name;
    t.parent.(id) <- parent;
    t.req.(id) <- req;
    t.sim0.(id) <- (match sim0 with Some c -> c | None -> t.sim_now ());
    t.sim1.(id) <- -1;
    t.host0.(id) <- t.host_now ();
    t.host1.(id) <- -1;
    id
  end

let leave t id =
  if id <> none then begin
    t.host1.(id) <- t.host_now ();
    t.sim1.(id) <- t.sim_now ()
  end

(* Close a span at a simulated time learned after the fact (a reply time
   stamped by the pipeline). *)
let leave_at t id ~sim1 =
  if id <> none then begin
    t.host1.(id) <- t.host_now ();
    t.sim1.(id) <- sim1
  end

(* A span over an interval known only after the fact; no host duration. *)
let record t ?(parent = none) ~req name ~sim0 ~sim1 =
  let id = enter t ~parent ~sim0 ~req name in
  if id <> none then begin
    t.sim1.(id) <- sim1;
    t.host1.(id) <- t.host0.(id)
  end;
  id

let count t = t.n

let closed t i = t.sim1.(i) >= 0

(* Simulated durations of every closed span called [name]. *)
let durations t name =
  let s = Measure.samples () in
  for i = 0 to t.n - 1 do
    if closed t i && String.equal t.names.(i) name then
      Measure.add s (t.sim1.(i) - t.sim0.(i))
  done;
  s

(* Host nanoseconds summed over every closed span called [name], with the
   number of such spans. *)
let host_total t name =
  let sum = ref 0 and k = ref 0 in
  for i = 0 to t.n - 1 do
    if closed t i && String.equal t.names.(i) name then begin
      sum := !sum + (t.host1.(i) - t.host0.(i));
      incr k
    end
  done;
  (!sum, !k)

(* Length of the union of [intervals] clipped to [lo, hi). *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if a < b then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if ca < 0 then (total, (a, b))
        else if a <= cb then (total, (ca, max cb b))
        else (total + (cb - ca), (a, b)))
      (0, (-1, -1))
      sorted
  in
  match last with ca, cb when ca >= 0 -> total + (cb - ca) | _ -> total

(* Self time of every closed span: its simulated duration minus the part
   of its interval covered by its closed children. *)
let self_times t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p <> none && closed t i then children.(p) <- (t.sim0.(i), t.sim1.(i)) :: children.(p)
  done;
  Array.init t.n (fun i ->
      if not (closed t i) then 0
      else
        let lo = t.sim0.(i) and hi = t.sim1.(i) in
        hi - lo - covered ~lo ~hi children.(i))

(* Per span name: (name, spans, total simulated cycles, total self cycles),
   in order of first appearance. *)
let summary t =
  let self = self_times t in
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    if closed t i then begin
      let name = t.names.(i) in
      let k, dur, s =
        match Hashtbl.find_opt tbl name with
        | Some v -> v
        | None ->
          order := name :: !order;
          (0, 0, 0)
      in
      Hashtbl.replace tbl name (k + 1, dur + (t.sim1.(i) - t.sim0.(i)), s + self.(i))
    end
  done;
  List.rev_map
    (fun name ->
      let k, dur, s = Hashtbl.find tbl name in
      (name, k, dur, s))
    !order

(* Spans written out at most: a traced serve-mixed round records ~1M. *)
let max_written = 100_000

(* One line per span: id, parent, request, name, sim start/end (cycles),
   host start/end (ns); the first [max_written] spans only. *)
let write_tsv t path =
  let oc = open_out path in
  output_string oc "id\tparent\treq\tname\tsim0\tsim1\thost0\thost1\n";
  for i = 0 to min t.n max_written - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n" i t.parent.(i) t.req.(i)
      t.names.(i) t.sim0.(i) t.sim1.(i) t.host0.(i) t.host1.(i)
  done;
  close_out oc
