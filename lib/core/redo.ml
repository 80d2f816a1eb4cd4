module Nvm = Dudetm_nvm.Nvm
module Plog = Dudetm_log.Plog
module Log_entry = Dudetm_log.Log_entry

type item = { lo : int; hi : int; entries : Log_entry.t list }

let txs entries =
  let rec go cur acc = function
    | [] ->
      assert (cur = []);
      List.rev acc
    | (Log_entry.Tx_end { tid } as e) :: rest ->
      go [] ({ lo = tid; hi = tid; entries = List.rev (e :: cur) } :: acc) rest
    | e :: rest -> go (e :: cur) acc rest
  in
  go [] [] entries

let items cfg entries =
  if not cfg.Config.combine then txs entries
  else
    match Log_entry.tids entries with
    | [] -> []
    | first :: _ as tids ->
      [ { lo = List.fold_left min first tids; hi = List.fold_left max first tids; entries } ]

let span = function
  | [] -> None
  | it :: rest ->
    Some
      (List.fold_left
         (fun (lo, hi) it -> (min lo it.lo, max hi it.hi))
         (it.lo, it.hi) rest)

(* Gating on the max is enough: fragment admissibility is monotone in the
   global ID. *)
let max_gtid it =
  List.fold_left
    (fun acc e -> match e with Log_entry.Cross { gtid; _ } -> max acc gtid | _ -> acc)
    0 it.entries

let apply nvm ~alloc ~dirty ~ranges ~frontier it =
  List.iter
    (fun e ->
      match e with
      | Log_entry.Write { addr; value } ->
        Nvm.store_u64 nvm addr value;
        ranges := (addr, 8) :: !ranges;
        Hashtbl.replace dirty (addr / Config.crc_extent) ();
        Hashtbl.replace dirty ((addr + 7) / Config.crc_extent) ()
      | Log_entry.Alloc { off; len } -> Alloc.reserve alloc ~off ~len
      | Log_entry.Free { off; len } -> Alloc.free alloc ~off ~len
      | Log_entry.Cross { gtid; _ } -> if gtid > !frontier then frontier := gtid
      | Log_entry.Tx_end _ -> ())
    it.entries

type scan = {
  upto : int;
  durable : int;
  items : item list;
  tids : (int, unit) Hashtbl.t;
  fragments : (int * int * int) list;
}

let scan cfg ~upto rings =
  let acc = ref [] in
  let tids = Hashtbl.create 1024 in
  let fragments = ref [] in
  Array.iter
    (fun (ring : Plog.scan) ->
      List.iter
        (fun (record : Plog.record) ->
          let entries = Log_entry.decode_payload record.Plog.payload in
          List.iter (fun tid -> Hashtbl.replace tids tid ()) (Log_entry.tids entries);
          fragments := List.rev_append (Log_entry.cross_seals entries) !fragments;
          acc := List.rev_append (items cfg entries) !acc)
        ring.Plog.records)
    rings;
  let d = ref upto in
  while Hashtbl.mem tids (!d + 1) do
    incr d
  done;
  {
    upto;
    durable = !d;
    items = List.sort (fun a b -> compare a.lo b.lo) !acc;
    tids;
    fragments = List.sort compare !fragments;
  }

let live s ~durable = List.partition (fun it -> it.lo > s.upto && it.hi <= durable) s.items

let recovery_journal cfg nvm =
  let journal = Rjournal.attach nvm ~base:(Config.rjournal_base cfg) in
  if cfg.Config.fault = Config.Skip_recovery_journal then None
  else begin
    (match Rjournal.read journal with
    | Rjournal.Probe { line; original } ->
      let ls = Nvm.line_size nvm in
      Nvm.store_u64 nvm (line * ls) original;
      Nvm.persist nvm ~off:(line * ls) ~len:8;
      Rjournal.write journal Rjournal.Idle
    | Rjournal.Idle | Rjournal.Replay _ -> ());
    Some journal
  end
