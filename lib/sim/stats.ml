(* [live] marks a cell bumped since creation or the last [reset]: only
   those are listed, so a counter resolved up front but never bumped stays
   absent, as if it had never been named. *)
type cell = { mutable v : int; mutable live : bool }

type t = (string, cell) Hashtbl.t

let create () : t = Hashtbl.create 16

let counter t name =
  match Hashtbl.find_opt t name with
  | Some c -> c
  | None ->
    let c = { v = 0; live = false } in
    Hashtbl.add t name c;
    c

let bump_by c n =
  c.v <- c.v + n;
  c.live <- true

let bump c = bump_by c 1

let add t name n = bump_by (counter t name) n

let incr t name = add t name 1

let get t name = match Hashtbl.find_opt t name with Some c -> c.v | None -> 0

let reset t =
  Hashtbl.iter
    (fun _ c ->
      c.v <- 0;
      c.live <- false)
    t

let to_list t =
  Hashtbl.fold (fun k c acc -> if c.live then (k, c.v) :: acc else acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

module Latency = struct
  type r = { mutable samples : int array; mutable len : int; mutable sorted : bool }

  let create () = { samples = Array.make 1024 0; len = 0; sorted = false }

  let record r v =
    if r.len = Array.length r.samples then begin
      let bigger = Array.make (2 * r.len) 0 in
      Array.blit r.samples 0 bigger 0 r.len;
      r.samples <- bigger
    end;
    r.samples.(r.len) <- v;
    r.len <- r.len + 1;
    r.sorted <- false

  let count r = r.len

  let ensure_sorted r =
    if not r.sorted then begin
      let live = Array.sub r.samples 0 r.len in
      Array.sort compare live;
      Array.blit live 0 r.samples 0 r.len;
      r.sorted <- true
    end

  let percentile r p =
    if r.len = 0 then 0
    else begin
      ensure_sorted r;
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let idx = int_of_float (ceil (p /. 100.0 *. float_of_int r.len)) - 1 in
      r.samples.(max 0 (min (r.len - 1) idx))
    end

  let mean r =
    if r.len = 0 then 0.0
    else begin
      let sum = ref 0 in
      for i = 0 to r.len - 1 do
        sum := !sum + r.samples.(i)
      done;
      float_of_int !sum /. float_of_int r.len
    end

  let log2_bucket v =
    if v <= 1 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 1 do
        b := !b + 1;
        v := !v lsr 1
      done;
      !b
    end

  let log2_histogram r =
    let counts = Array.make 63 0 in
    for i = 0 to r.len - 1 do
      let b = log2_bucket r.samples.(i) in
      counts.(b) <- counts.(b) + 1
    done;
    let out = ref [] in
    for b = 62 downto 0 do
      if counts.(b) > 0 then out := (b, counts.(b)) :: !out
    done;
    !out

  let reset r =
    r.len <- 0;
    r.sorted <- false
end
