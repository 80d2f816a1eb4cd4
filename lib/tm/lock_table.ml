(* Lock word encoding: [version lsl 1] when free, [(uid lsl 1) lor 1] when
   owned.  Plain ints are safe: the simulator is single-OS-thread and every
   lock operation happens between scheduler yield points. *)

type t = { words : int array; mask : int }

(* 2^20 stripes: large transactions (TPC-C reads ~300 words) need a sparse
   table or stripe-hash false conflicts dominate the abort rate; real
   TinySTM defaults to 2^22 locks. *)
let create ?(bits = 20) () =
  if bits < 1 || bits > 26 then invalid_arg "Lock_table.create: bits out of range";
  let n = 1 lsl bits in
  { words = Array.make n 0; mask = n - 1 }

let stripes t = Array.length t.words

(* Words are 8-byte aligned; mix higher bits in so that adjacent structure
   fields do not all collide into consecutive stripes. *)
let stripe_of_addr t addr =
  let w = addr lsr 3 in
  (w lxor (w lsr 13)) land t.mask

let word t stripe = t.words.(stripe)

let owned w = w land 1 = 1

let value w = w lsr 1

let acquire t ~stripe ~uid =
  let w = t.words.(stripe) in
  if w land 1 = 1 then None
  else begin
    t.words.(stripe) <- (uid lsl 1) lor 1;
    Some (w lsr 1)
  end

let release_to t ~stripe ~version = t.words.(stripe) <- version lsl 1
