(* See trace.mli for the contract.  The tracer is a process-wide singleton:
   the simulation is single-OS-thread, so no locking is needed, and the
   scheduler can register its clock once at load time.

   Hot-path discipline: every emitter starts with [if not st.on then ()].
   With tracing disabled that test is the entire cost — no closures, no
   [Some] boxes (all emitters take labelled, fixed-arity arguments), no
   string building.  With tracing enabled, ring events are written into
   preallocated records (mutated in place), so steady-state emission does
   not grow the heap either; only histogram/stack bookkeeping allocates. *)

type ev_kind = Ev_begin | Ev_end | Ev_instant | Ev_counter

type event = {
  mutable e_ts : int;
  mutable e_tid : int;
  mutable e_kind : ev_kind;
  mutable e_cat : string;
  mutable e_name : string;
  mutable e_arg : int;
}

type hist = {
  mutable h_count : int;
  mutable h_total : int;
  mutable h_max : int;
  h_buckets : int array;  (* 63 log₂ buckets; bucket i covers [2^i, 2^i+1) *)
}

type nvm_cell = {
  mutable c_bytes : int;
  mutable c_cycles : int;
  mutable c_ops : int;
  mutable c_busy : int;  (* devices only: channel-occupied cycles *)
}

type state = {
  mutable on : bool;
  mutable ring : event array;
  mutable cursor : int;  (* total events emitted; ring slot = cursor mod len *)
  mutable hists : (string, hist) Hashtbl.t;
  mutable stacks : (int, (string * string * int) list ref) Hashtbl.t;
  mutable last_ts : (int, int) Hashtbl.t;
  mutable names : (int, string) Hashtbl.t;
  mutable nvm : (int, nvm_cell) Hashtbl.t;
  mutable nvm_dev : (string, nvm_cell) Hashtbl.t;
  mutable links : (string, nvm_cell) Hashtbl.t;
  mutable orphans : int;
  mutable mismatched : int;
  mutable nonmono : int;
  mutable viol : string list;  (* first few violation details, newest first *)
}

let max_viol_details = 16
let default_capacity = 65536

let fresh_ring capacity =
  Array.init capacity (fun _ ->
      { e_ts = 0; e_tid = 0; e_kind = Ev_instant; e_cat = ""; e_name = ""; e_arg = 0 })

let st =
  {
    on = false;
    ring = [||];
    cursor = 0;
    hists = Hashtbl.create 1;
    stacks = Hashtbl.create 1;
    last_ts = Hashtbl.create 1;
    names = Hashtbl.create 1;
    nvm = Hashtbl.create 1;
    nvm_dev = Hashtbl.create 1;
    links = Hashtbl.create 1;
    orphans = 0;
    mismatched = 0;
    nonmono = 0;
    viol = [];
  }

let clear ~capacity =
  st.ring <- fresh_ring capacity;
  st.cursor <- 0;
  st.hists <- Hashtbl.create 64;
  st.stacks <- Hashtbl.create 16;
  st.last_ts <- Hashtbl.create 16;
  st.names <- Hashtbl.create 16;
  st.nvm <- Hashtbl.create 16;
  st.nvm_dev <- Hashtbl.create 16;
  st.links <- Hashtbl.create 16;
  st.orphans <- 0;
  st.mismatched <- 0;
  st.nonmono <- 0;
  st.viol <- []

let enabled () = st.on

let enable ?(capacity = default_capacity) () =
  clear ~capacity:(max 16 capacity);
  st.on <- true

let disable () = st.on <- false

let reset () =
  let capacity = if Array.length st.ring = 0 then default_capacity else Array.length st.ring in
  clear ~capacity

(* Time source, registered by the scheduler at load time. *)

let now_fn = ref (fun () -> 0)
let self_fn = ref (fun () -> (0, "main"))

let set_time_source ~now ~self =
  now_fn := now;
  self_fn := self

let note_violation msg =
  if List.length st.viol < max_viol_details then st.viol <- msg :: st.viol

(* Core emitter: monotonicity check + ring write into a recycled record. *)
let emit ~ts ~tid ~kind ~cat ~name ~arg =
  (match Hashtbl.find_opt st.last_ts tid with
  | Some prev when ts < prev ->
    st.nonmono <- st.nonmono + 1;
    note_violation
      (Printf.sprintf "non-monotone timestamp on tid %d: %s.%s at %d after %d" tid cat
         name ts prev)
  | _ -> ());
  Hashtbl.replace st.last_ts tid ts;
  let e = st.ring.(st.cursor mod Array.length st.ring) in
  e.e_ts <- ts;
  e.e_tid <- tid;
  e.e_kind <- kind;
  e.e_cat <- cat;
  e.e_name <- name;
  e.e_arg <- arg;
  st.cursor <- st.cursor + 1

let note_thread ~tid name =
  if st.on && not (Hashtbl.mem st.names tid) then Hashtbl.add st.names tid name

let self_noted () =
  let tid, tname = !self_fn () in
  note_thread ~tid tname;
  tid

let hist_for key =
  match Hashtbl.find_opt st.hists key with
  | Some h -> h
  | None ->
    let h = { h_count = 0; h_total = 0; h_max = 0; h_buckets = Array.make 63 0 } in
    Hashtbl.add st.hists key h;
    h

let bucket_of v =
  if v <= 1 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 1 do
      x := !x lsr 1;
      incr b
    done;
    min !b 62
  end

let record_sample key cycles =
  let h = hist_for key in
  h.h_count <- h.h_count + 1;
  h.h_total <- h.h_total + cycles;
  if cycles > h.h_max then h.h_max <- cycles;
  let b = h.h_buckets in
  let i = bucket_of cycles in
  b.(i) <- b.(i) + 1

let stack_for tid =
  match Hashtbl.find_opt st.stacks tid with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.add st.stacks tid s;
    s

let span_begin ~cat name =
  if st.on then begin
    let ts = !now_fn () in
    let tid = self_noted () in
    let stack = stack_for tid in
    stack := (cat, name, ts) :: !stack;
    emit ~ts ~tid ~kind:Ev_begin ~cat ~name ~arg:0
  end

let span_end ~cat name =
  if st.on then begin
    let ts = !now_fn () in
    let tid = self_noted () in
    let stack = stack_for tid in
    (match !stack with
    | [] ->
      st.orphans <- st.orphans + 1;
      note_violation
        (Printf.sprintf "orphan span end %s.%s on tid %d at %d" cat name tid ts)
    | (c0, n0, ts0) :: rest ->
      if c0 <> cat || n0 <> name then begin
        st.mismatched <- st.mismatched + 1;
        note_violation
          (Printf.sprintf "mismatched span end on tid %d: closed %s.%s, open %s.%s" tid
             cat name c0 n0)
      end;
      stack := rest;
      record_sample (cat ^ "." ^ name) (max 0 (ts - ts0)));
    emit ~ts ~tid ~kind:Ev_end ~cat ~name ~arg:0
  end

let span ~cat name f =
  if not st.on then f ()
  else begin
    span_begin ~cat name;
    Fun.protect ~finally:(fun () -> span_end ~cat name) f
  end

let instant ~cat name arg =
  if st.on then begin
    let ts = !now_fn () in
    let tid = self_noted () in
    emit ~ts ~tid ~kind:Ev_instant ~cat ~name ~arg
  end

let instant_at ~ts ~tid ~cat name arg =
  if st.on then emit ~ts ~tid ~kind:Ev_instant ~cat ~name ~arg

let counter ~cat name v =
  if st.on then begin
    let ts = !now_fn () in
    let tid = self_noted () in
    emit ~ts ~tid ~kind:Ev_counter ~cat ~name ~arg:v
  end

let sample ~cat name cycles =
  if st.on then record_sample (cat ^ "." ^ name) cycles

let nvm_transfer ~dev ~bytes ~cycles ~busy =
  if st.on then begin
    let ts = !now_fn () in
    let tid = self_noted () in
    let cell =
      match Hashtbl.find_opt st.nvm tid with
      | Some c -> c
      | None ->
        let c = { c_bytes = 0; c_cycles = 0; c_ops = 0; c_busy = 0 } in
        Hashtbl.add st.nvm tid c;
        c
    in
    cell.c_bytes <- cell.c_bytes + bytes;
    cell.c_cycles <- cell.c_cycles + cycles;
    cell.c_ops <- cell.c_ops + 1;
    let dcell =
      match Hashtbl.find_opt st.nvm_dev dev with
      | Some c -> c
      | None ->
        let c = { c_bytes = 0; c_cycles = 0; c_ops = 0; c_busy = 0 } in
        Hashtbl.add st.nvm_dev dev c;
        c
    in
    dcell.c_bytes <- dcell.c_bytes + bytes;
    dcell.c_cycles <- dcell.c_cycles + cycles;
    dcell.c_ops <- dcell.c_ops + 1;
    dcell.c_busy <- dcell.c_busy + busy;
    emit ~ts ~tid ~kind:Ev_instant ~cat:"nvm" ~name:"persist" ~arg:bytes
  end

(* Per-link byte accounting for the replication interconnect.  Same
   discipline as the per-device NVM table: [link] is a plain string
   argument so a disabled-mode call site allocates nothing. *)
let link_transfer ~link ~bytes ~cycles =
  if st.on then begin
    let ts = !now_fn () in
    let tid = self_noted () in
    let cell =
      match Hashtbl.find_opt st.links link with
      | Some c -> c
      | None ->
        let c = { c_bytes = 0; c_cycles = 0; c_ops = 0; c_busy = 0 } in
        Hashtbl.add st.links link c;
        c
    in
    cell.c_bytes <- cell.c_bytes + bytes;
    cell.c_cycles <- cell.c_cycles + cycles;
    cell.c_ops <- cell.c_ops + 1;
    emit ~ts ~tid ~kind:Ev_instant ~cat:"link" ~name:"frame" ~arg:bytes
  end

(* ------------------------------------------------------------------ *)
(* Reading back                                                        *)

type phase = {
  ph_cat : string;
  ph_name : string;
  ph_count : int;
  ph_total : int;
  ph_max : int;
  ph_p50 : int;
  ph_p99 : int;
}

let percentile h q =
  (* Lower bound of the log₂ bucket containing the q-th sample. *)
  if h.h_count = 0 then 0
  else begin
    let target = max 1 (int_of_float (ceil (q *. float_of_int h.h_count))) in
    let acc = ref 0 and res = ref 0 in
    (try
       for i = 0 to 62 do
         acc := !acc + h.h_buckets.(i);
         if !acc >= target then begin
           res := (if i = 0 then 0 else 1 lsl i);
           raise Exit
         end
       done
     with Exit -> ());
    !res
  end

let split_key key =
  match String.index_opt key '.' with
  | Some i -> (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
  | None -> ("", key)

let phases () =
  Hashtbl.fold
    (fun key h acc ->
      let cat, name = split_key key in
      {
        ph_cat = cat;
        ph_name = name;
        ph_count = h.h_count;
        ph_total = h.h_total;
        ph_max = h.h_max;
        ph_p50 = percentile h 0.50;
        ph_p99 = percentile h 0.99;
      }
      :: acc)
    st.hists []
  |> List.sort (fun a b -> compare (b.ph_total, a.ph_cat, a.ph_name) (a.ph_total, b.ph_cat, b.ph_name))

type nvm_acct = {
  nv_thread : string;
  nv_bytes : int;
  nv_cycles : int;
  nv_ops : int;
}

let thread_name tid =
  match Hashtbl.find_opt st.names tid with
  | Some n -> n
  | None -> "tid" ^ string_of_int tid

let nvm_accts () =
  Hashtbl.fold
    (fun tid c acc ->
      { nv_thread = thread_name tid; nv_bytes = c.c_bytes; nv_cycles = c.c_cycles;
        nv_ops = c.c_ops }
      :: acc)
    st.nvm []
  |> List.sort (fun a b -> compare (b.nv_bytes, a.nv_thread) (a.nv_bytes, b.nv_thread))

type nvm_dev_acct = {
  nd_dev : string;
  nd_bytes : int;
  nd_cycles : int;
  nd_ops : int;
  nd_busy : int;
}

let nvm_dev_accts () =
  Hashtbl.fold
    (fun dev c acc ->
      { nd_dev = dev; nd_bytes = c.c_bytes; nd_cycles = c.c_cycles; nd_ops = c.c_ops;
        nd_busy = c.c_busy }
      :: acc)
    st.nvm_dev []
  |> List.sort (fun a b -> compare (b.nd_bytes, a.nd_dev) (a.nd_bytes, b.nd_dev))

type link_acct = {
  lk_link : string;
  lk_bytes : int;
  lk_cycles : int;
  lk_frames : int;
}

let link_accts () =
  Hashtbl.fold
    (fun link c acc ->
      { lk_link = link; lk_bytes = c.c_bytes; lk_cycles = c.c_cycles; lk_frames = c.c_ops }
      :: acc)
    st.links []
  |> List.sort (fun a b -> compare (b.lk_bytes, a.lk_link) (a.lk_bytes, b.lk_link))

let retained_iter f =
  let len = Array.length st.ring in
  if len > 0 then begin
    let start = max 0 (st.cursor - len) in
    for k = start to st.cursor - 1 do
      f st.ring.(k mod len)
    done
  end

let counter_series ~cat name =
  let acc = ref [] in
  retained_iter (fun e ->
      if e.e_kind = Ev_counter && e.e_cat = cat && e.e_name = name then
        acc := (e.e_ts, e.e_arg) :: !acc);
  List.rev !acc

(* Closed [start, end) intervals reconstructed from the retained ring for
   one span key, per emitting thread.  Begins whose end fell off the ring
   (or is still open) are dropped. *)
let retained_intervals ~cat name =
  let open_ts : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let acc = ref [] in
  retained_iter (fun e ->
      if e.e_cat = cat && e.e_name = name then
        match e.e_kind with
        | Ev_begin ->
          let s =
            match Hashtbl.find_opt open_ts e.e_tid with
            | Some s -> s
            | None ->
              let s = ref [] in
              Hashtbl.add open_ts e.e_tid s;
              s
          in
          s := e.e_ts :: !s
        | Ev_end -> (
          match Hashtbl.find_opt open_ts e.e_tid with
          | Some ({ contents = ts0 :: rest } as s) ->
            s := rest;
            acc := (e.e_tid, ts0, e.e_ts) :: !acc
          | _ -> ())
        | Ev_instant | Ev_counter -> ());
  !acc

let span_overlap ~cat a b =
  let ia = retained_intervals ~cat a and ib = retained_intervals ~cat b in
  List.fold_left
    (fun acc (ta, sa, ea) ->
      List.fold_left
        (fun acc (tb, sb, eb) ->
          if ta = tb then acc else acc + max 0 (min ea eb - max sa sb))
        acc ib)
    0 ia

let events () = st.cursor
let dropped () = max 0 (st.cursor - Array.length st.ring)

let open_span_count () =
  Hashtbl.fold (fun _ s acc -> acc + List.length !s) st.stacks 0

let utilization ~total cycles = float_of_int cycles /. float_of_int total

let validate ?total_cycles () =
  let out = ref [] in
  let addf fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  (match total_cycles with
  | Some total when total > 0 ->
    List.iter
      (fun a ->
        if a.nd_busy > total then
          addf "device %s utilization %.4f > 1" a.nd_dev (utilization ~total a.nd_busy))
      (nvm_dev_accts ())
  | _ -> ());
  if st.orphans > 0 then addf "%d orphan span end(s)" st.orphans;
  if st.mismatched > 0 then addf "%d mismatched span end(s)" st.mismatched;
  if st.nonmono > 0 then addf "%d non-monotone timestamp(s)" st.nonmono;
  Hashtbl.iter
    (fun tid s ->
      List.iter
        (fun (cat, name, ts) ->
          addf "span %s.%s opened at %d on %s never closed" cat name ts
            (thread_name tid))
        !s)
    st.stacks;
  List.rev_append st.viol (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* 3.4 GHz simulated core: cycles per microsecond. *)
let default_cycles_per_us = 3400.

let to_chrome_json ?(cycles_per_us = default_cycles_per_us) () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_char b '\n'
  in
  Hashtbl.fold (fun tid name acc -> (tid, name) :: acc) st.names []
  |> List.sort compare
  |> List.iter (fun (tid, name) ->
         sep ();
         Buffer.add_string b
           (Printf.sprintf
              "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
              tid (json_escape name)));
  retained_iter (fun e ->
      sep ();
      let ts = float_of_int e.e_ts /. cycles_per_us in
      match e.e_kind with
      | Ev_begin ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\":\"B\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"cat\":\"%s\",\"name\":\"%s\"}"
             e.e_tid ts (json_escape e.e_cat) (json_escape e.e_name))
      | Ev_end ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"cat\":\"%s\",\"name\":\"%s\"}"
             e.e_tid ts (json_escape e.e_cat) (json_escape e.e_name))
      | Ev_instant ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\",\"cat\":\"%s\",\"name\":\"%s\",\"args\":{\"arg\":%d}}"
             e.e_tid ts (json_escape e.e_cat) (json_escape e.e_name) e.e_arg)
      | Ev_counter ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"cat\":\"%s\",\"name\":\"%s\",\"args\":{\"value\":%d}}"
             e.e_tid ts (json_escape e.e_cat) (json_escape e.e_name) e.e_arg));
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let summary_json ?total_cycles () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"phases\": [";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char b ',' in
  List.iter
    (fun p ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"cat\":\"%s\",\"name\":\"%s\",\"count\":%d,\"total_cycles\":%d,\"max_cycles\":%d,\"p50_cycles\":%d,\"p99_cycles\":%d}"
           (json_escape p.ph_cat) (json_escape p.ph_name) p.ph_count p.ph_total p.ph_max
           p.ph_p50 p.ph_p99))
    (phases ());
  Buffer.add_string b "\n  ],\n  \"nvm\": [";
  first := true;
  List.iter
    (fun a ->
      sep ();
      let util =
        match total_cycles with
        | Some total when total > 0 ->
          Printf.sprintf ",\"utilization\":%.4f" (utilization ~total a.nv_cycles)
        | _ -> ""
      in
      Buffer.add_string b
        (Printf.sprintf "\n    {\"thread\":\"%s\",\"bytes\":%d,\"cycles\":%d,\"ops\":%d%s}"
           (json_escape a.nv_thread) a.nv_bytes a.nv_cycles a.nv_ops util))
    (nvm_accts ());
  Buffer.add_string b "\n  ],\n  \"nvm_devices\": [";
  first := true;
  List.iter
    (fun a ->
      sep ();
      let util =
        match total_cycles with
        | Some total when total > 0 ->
          Printf.sprintf ",\"utilization\":%.4f" (utilization ~total a.nd_busy)
        | _ -> ""
      in
      Buffer.add_string b
        (Printf.sprintf "\n    {\"dev\":\"%s\",\"bytes\":%d,\"cycles\":%d,\"ops\":%d%s}"
           (json_escape a.nd_dev) a.nd_bytes a.nd_cycles a.nd_ops util))
    (nvm_dev_accts ());
  Buffer.add_string b "\n  ],\n  \"links\": [";
  first := true;
  List.iter
    (fun a ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf "\n    {\"link\":\"%s\",\"bytes\":%d,\"cycles\":%d,\"frames\":%d}"
           (json_escape a.lk_link) a.lk_bytes a.lk_cycles a.lk_frames))
    (link_accts ());
  Buffer.add_string b "\n  ],\n  \"ring_occupancy\": [";
  first := true;
  List.iter
    (fun (ts, v) ->
      sep ();
      Buffer.add_string b (Printf.sprintf "[%d,%d]" ts v))
    (counter_series ~cat:"plog" "used");
  Buffer.add_string b "],\n";
  (match total_cycles with
  | Some t -> Buffer.add_string b (Printf.sprintf "  \"total_cycles\": %d,\n" t)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "  \"events\": %d,\n  \"dropped\": %d,\n" (events ()) (dropped ()));
  Buffer.add_string b "  \"violations\": [";
  first := true;
  List.iter
    (fun v ->
      sep ();
      Buffer.add_string b (Printf.sprintf "\"%s\"" (json_escape v)))
    (validate ?total_cycles ());
  Buffer.add_string b "]\n}\n";
  Buffer.contents b
