exception Deadlock of string
exception Killed
exception Missed_ring of string

type bell = { mutable rung : int }

module Trace = Dudetm_trace.Trace

type _ Effect.t +=
  | Advance : int -> unit Effect.t
  | Wait : (unit -> bool) * string * bell -> unit Effect.t
  | Spawn : bool * string * (unit -> unit) -> int Effect.t
  | Now : int Effect.t
  | Self : (int * string) Effect.t

type state =
  | Not_started of (unit -> unit)
  | Running
  | Paused of (unit, unit) Effect.Deep.continuation
  | Waiting of {
      pred : unit -> bool;
      label : string;
      on : bell;
      k : (unit, unit) Effect.Deep.continuation;
    }
  | Finished

type thread = {
  id : int;
  name : string;
  daemon : bool;
  mutable clock : int;
  mutable state : state;
  mutable blocked : bool;  (* Waiting, and its predicate was false at this step *)
  mutable seen : int;  (* the bell's [rung] when the predicate last read false *)
}

type strategy =
  | Min_clock
  | Choice of (step:int -> candidates:int -> int)

type sched = {
  mutable ready : thread array;
      (* binary min-heap on (clock, id) of the Not_started and Paused
         threads, in [ready.(0 .. nready - 1)].  A queued thread's clock
         never changes: drag only moves blocked waiters. *)
  mutable nready : int;
  mutable waiters : thread array;
      (* the Waiting threads, in id order: predicates are polled, and a
         deadlock reports the blocked threads, in a fixed order *)
  mutable nwaiters : int;
  mutable polled : bool;
      (* the waiters' [blocked] verdicts, [best_waiter] and
         [runnable_waiters] are this step's: a no-switch [advance] polled
         and then lost, so [pick] must not poll again *)
  mutable best_waiter : int;  (* index of the least runnable waiter, or -1 *)
  mutable runnable_waiters : int;
  mutable cur : thread;  (* the thread being resumed; [nobody] on the scheduler's stack *)
  mutable rev_new : thread list;  (* threads spawned since last loop pass *)
  mutable next_id : int;
  mutable live_non_daemon : int;
  mutable watermark : int;
  mutable steps : int;  (* decision points (>= 2 runnable) so far *)
  strategy : strategy;
  trace : bool;
  no_switch : bool;  (* [advance] may skip the context switch: Min_clock, no trace *)
}

(* The simulation is single-OS-thread by construction, so one global current
   scheduler is safe and keeps the public API free of a [t] parameter. *)
let current : sched option ref = ref None

(* Stand-in for "no thread": the empty slot of the heap and waiter arrays,
   and [cur] while the scheduler's own code runs. *)
let nobody =
  { id = -1; name = "<none>"; daemon = true; clock = max_int; state = Finished; blocked = false;
    seen = 0 }

(* The bell of a wait without [~on]: never consulted, the predicate is
   polled every step. *)
let unbelled = { rung = 0 }

let bell () = { rung = 0 }

let ring b = b.rung <- b.rung + 1

(* The reference poll, for tests: re-evaluate every waiter a bell let
   [poll] skip, and report the first whose predicate reads true. *)
let auditing = ref false

let first_miss : string option ref = ref None

let missed label =
  if !first_miss = None then first_miss := Some label;
  raise (Missed_ring label)

(* Whether a thread at [clock] with [id] runs before [u]: (clock, id) order. *)
let before clock id u = clock < u.clock || (clock = u.clock && id < u.id)

let earlier t u = before t.clock t.id u

let grow a = Array.append a (Array.make (Array.length a) nobody)

(* Ready heap.  [sift_up]/[sift_down] move the hole at [i] and place [t]. *)
let rec sift_up h i t =
  let p = (i - 1) / 2 in
  if i > 0 && earlier t h.(p) then begin
    h.(i) <- h.(p);
    sift_up h p t
  end
  else h.(i) <- t

let rec sift_down h n i t =
  let l = (2 * i) + 1 in
  if l >= n then h.(i) <- t
  else
    let c = if l + 1 < n && earlier h.(l + 1) h.(l) then l + 1 else l in
    if earlier h.(c) t then begin
      h.(i) <- h.(c);
      sift_down h n c t
    end
    else h.(i) <- t

let push_ready s t =
  if s.nready = Array.length s.ready then s.ready <- grow s.ready;
  s.nready <- s.nready + 1;
  sift_up s.ready (s.nready - 1) t

let take_ready s i =
  let h = s.ready in
  let t = h.(i) in
  let n = s.nready - 1 in
  s.nready <- n;
  let last = h.(n) in
  h.(n) <- nobody;
  if i < n then begin
    sift_down h n i last;
    if h.(i) == last then sift_up h i last
  end;
  t

let add_waiter s t =
  if s.nwaiters = Array.length s.waiters then s.waiters <- grow s.waiters;
  let w = s.waiters in
  let i = ref s.nwaiters in
  while !i > 0 && w.(!i - 1).id > t.id do
    w.(!i) <- w.(!i - 1);
    decr i
  done;
  w.(!i) <- t;
  s.nwaiters <- s.nwaiters + 1

let take_waiter s i =
  let w = s.waiters in
  let t = w.(i) in
  let n = s.nwaiters - 1 in
  Array.blit w (i + 1) w i (n - i);
  w.(n) <- nobody;
  s.nwaiters <- n;
  t

(* [finish] runs on the scheduler's own stack (retc/exnc/kill_daemons), where
   the Now/Self effects are unhandled — trace events here must carry the
   thread's clock and id explicitly. *)
let finish s t =
  if t.state <> Finished then begin
    t.state <- Finished;
    Trace.instant_at ~ts:t.clock ~tid:t.id ~cat:"sched" "finish" 0;
    if not t.daemon then s.live_non_daemon <- s.live_non_daemon - 1
  end

let handler s t =
  let open Effect.Deep in
  {
    retc = (fun () -> finish s t);
    exnc =
      (fun e ->
        match e with
        | Killed -> finish s t
        | e ->
          (* A crash of any simulated thread is a bug in the experiment:
             surface it instead of silently finishing. *)
          finish s t;
          raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Advance n ->
          Some
            (fun (k : (a, unit) continuation) ->
              t.clock <- t.clock + max 0 n;
              t.state <- Paused k;
              push_ready s t)
        | Wait (pred, label, on) ->
          Some
            (fun k ->
              if pred () then continue k ()
              else begin
                t.state <- Waiting { pred; label; on; k };
                t.blocked <- true;
                t.seen <- on.rung;
                add_waiter s t
              end)
        | Spawn (daemon, name, f) ->
          Some
            (fun k ->
              let id = s.next_id in
              s.next_id <- id + 1;
              let nt =
                { id; name; daemon; clock = t.clock; state = Not_started f; blocked = false;
                  seen = 0 }
              in
              Trace.note_thread ~tid:id name;
              Trace.instant_at ~ts:t.clock ~tid:t.id ~cat:"sched" "spawn" id;
              s.rev_new <- nt :: s.rev_new;
              if not daemon then s.live_non_daemon <- s.live_non_daemon + 1;
              continue k id)
        | Now -> Some (fun k -> continue k t.clock)
        | Self -> Some (fun k -> continue k (t.id, t.name))
        | _ -> None);
  }

let absorb_new s =
  if s.rev_new <> [] then begin
    List.iter (push_ready s) s.rev_new;
    s.rev_new <- []
  end

(* Evaluate each waiter's predicate at most once, caching the verdict in
   [blocked], and note the least runnable waiter and how many are
   runnable.  A belled waiter whose predicate read false when its bell
   stood where it stands now is skipped: nothing it reads has changed, so
   it would read false again.  Allocates nothing. *)
let poll s =
  let best = ref (-1) and runnable = ref 0 in
  for i = 0 to s.nwaiters - 1 do
    let t = s.waiters.(i) in
    (match t.state with
    | Waiting { pred; on; label; _ } ->
      if on == unbelled then t.blocked <- not (pred ())
      else if on.rung <> t.seen then begin
        t.blocked <- not (pred ());
        if t.blocked then t.seen <- on.rung
      end
      else if !auditing && pred () then missed label
    | _ -> ());
    if not t.blocked then begin
      incr runnable;
      if !best < 0 || earlier t s.waiters.(!best) then best := i
    end
  done;
  s.best_waiter <- !best;
  s.runnable_waiters <- !runnable;
  s.polled <- true

(* A blocked waiter has its clock dragged up to the winning clock,
   modelling time passing while it polls. *)
let drag s clock =
  for i = 0 to s.nwaiters - 1 do
    let t = s.waiters.(i) in
    if t.blocked && t.clock < clock then t.clock <- clock
  done

(* Dequeue the runnable thread with the least (clock, id), or [nobody]. *)
let take_min s =
  let bw = s.best_waiter in
  if bw >= 0 && (s.nready = 0 || earlier s.waiters.(bw) s.ready.(0)) then take_waiter s bw
  else if s.nready > 0 then take_ready s 0
  else nobody

let rec index_of a t i = if a.(i) == t then i else index_of a t (i + 1)

(* The candidate a Choice strategy picks at a decision point, from the
   verdicts [poll] cached: the runnable threads in (clock, id) order. *)
let choose_candidate s choose n =
  let step = s.steps in
  s.steps <- step + 1;
  let i = choose ~step ~candidates:n in
  if i <= 0 || i >= n then take_min s
  else
    let runnable = ref (Array.to_list (Array.sub s.ready 0 s.nready)) in
    for j = 0 to s.nwaiters - 1 do
      if not s.waiters.(j).blocked then runnable := s.waiters.(j) :: !runnable
    done;
    let t = List.nth (List.sort (fun a b -> compare (a.clock, a.id) (b.clock, b.id)) !runnable) i in
    match t.state with
    | Waiting _ -> take_waiter s (index_of s.waiters t 0)
    | _ -> take_ready s (index_of s.ready t 0)

(* Pick the next thread to resume, or [nobody].  Min_clock takes the
   runnable thread with the smallest (clock, id) — conservative
   discrete-event order — from the top of the ready heap or the least
   runnable waiter.  A Choice strategy is consulted at every decision
   point (>= 2 runnable threads) with the candidates in that same order, so
   index 0 degenerates to Min_clock and any other index is a legal
   preemption. *)
let pick s =
  if not s.polled then poll s;
  s.polled <- false;
  let n = s.nready + s.runnable_waiters in
  let w =
    match s.strategy with
    | Choice choose when n >= 2 -> choose_candidate s choose n
    | Min_clock | Choice _ -> take_min s
  in
  if w != nobody then drag s w.clock;
  w

let resume s t =
  if t.clock > s.watermark then s.watermark <- t.clock;
  if s.trace then
    Printf.eprintf "[sched %10d] resume %d:%s\n%!" t.clock t.id t.name;
  s.cur <- t;
  (match t.state with
  | Not_started f ->
    t.state <- Running;
    Effect.Deep.match_with f () (handler s t)
  | Paused k ->
    t.state <- Running;
    Effect.Deep.continue k ()
  | Waiting { k; _ } ->
    t.state <- Running;
    Effect.Deep.continue k ()
  | Running | Finished -> assert false);
  s.cur <- nobody

let blocked_report s =
  Array.sub s.waiters 0 s.nwaiters
  |> Array.to_list
  |> List.filter_map (fun t ->
         match t.state with
         | Waiting { label; _ } ->
           Some (Printf.sprintf "%d:%s waiting on %s" t.id t.name label)
         | _ -> None)
  |> String.concat "; "

(* Cancel every unfinished thread, in id order. *)
let kill_daemons s =
  Array.append (Array.sub s.ready 0 s.nready) (Array.sub s.waiters 0 s.nwaiters)
  |> Array.to_list
  |> List.sort (fun a b -> compare a.id b.id)
  |> List.iter (fun t ->
         match t.state with
         | Not_started _ -> finish s t
         | Paused k | Waiting { k; _ } ->
           t.state <- Running;
           (try Effect.Deep.discontinue k Killed with Killed -> ());
           finish s t
         | Running | Finished -> ())

let min_clock = Min_clock

(* Stateless seeded choice: hashing (seed, step) through splitmix64 keeps
   the strategy value reusable across runs with identical schedules. *)
let random_priority ~seed =
  Choice
    (fun ~step ~candidates ->
      let rng = Rng.create ((seed * 0x3C6EF372) lxor (step * 0x9E3779B9) lxor seed) in
      Rng.int rng candidates)

let run ?(trace = false) ?(strategy = Min_clock) main =
  if !current <> None then invalid_arg "Sched.run: nested simulations are not supported";
  let s =
    {
      ready = Array.make 64 nobody;
      nready = 0;
      waiters = Array.make 16 nobody;
      nwaiters = 0;
      polled = false;
      best_waiter = -1;
      runnable_waiters = 0;
      cur = nobody;
      rev_new = [];
      next_id = 1;
      live_non_daemon = 1;
      watermark = 0;
      steps = 0;
      strategy;
      trace;
      no_switch = strategy = Min_clock && not trace;
    }
  in
  push_ready s
    { id = 0; name = "main"; daemon = false; clock = 0; state = Not_started main;
      blocked = false; seen = 0 };
  current := Some s;
  let release () = current := None in
  (try
     let rec loop () =
       absorb_new s;
       if s.live_non_daemon > 0 then
         let t = pick s in
         if t == nobody then raise (Deadlock (blocked_report s));
         resume s t;
         loop ()
     in
     loop ();
     absorb_new s;
     kill_daemons s
   with e ->
     release ();
     raise e);
  release ();
  s.watermark

let perform_default : 'a. 'a Effect.t -> 'a -> 'a =
 fun eff default -> try Effect.perform eff with Effect.Unhandled _ -> default

(* The no-switch path: the running thread, charged [n], would win the
   next step anyway — it beats the top of the ready heap and, polled once,
   every runnable waiter — so do that step's drag and watermark in place
   and keep running.  A just-spawned child may win, so spawns since the
   last switch take the effect path; so does a loss, whose poll [pick]
   then reuses.  Predicates run before the watermark rises, as in [pick]. *)
let advance n =
  match !current with
  | Some s when s.no_switch && s.cur != nobody && s.rev_new == [] ->
    let t = s.cur in
    let c = t.clock + max 0 n in
    if s.nready = 0 || before c t.id s.ready.(0) then begin
      poll s;
      if s.best_waiter < 0 || before c t.id s.waiters.(s.best_waiter) then begin
        s.polled <- false;
        t.clock <- c;
        drag s c;
        if c > s.watermark then s.watermark <- c
      end
      else Effect.perform (Advance n)
    end
    else Effect.perform (Advance n)
  | _ -> perform_default (Advance n) ()

let yield () = advance 1

let wait_until ?(on = unbelled) ?(label = "?") pred =
  try Effect.perform (Wait (pred, label, on))
  with Effect.Unhandled _ ->
    if not (pred ()) then
      raise (Deadlock (Printf.sprintf "wait_until %S outside a simulation" label))

let audit f =
  auditing := true;
  first_miss := None;
  let result =
    Fun.protect
      ~finally:(fun () -> auditing := false)
      (fun () -> try Ok (f ()) with e -> Error e)
  in
  match (!first_miss, result) with
  | Some label, _ -> raise (Missed_ring label)
  | None, Ok r -> r
  | None, Error e -> raise e

let now () = perform_default Now 0

let self () = fst (perform_default Self (0, "<main>"))

let self_name () = snd (perform_default Self (0, "<main>"))

let spawn ?(daemon = false) name f =
  try Effect.perform (Spawn (daemon, name, f))
  with Effect.Unhandled _ -> invalid_arg "Sched.spawn outside a simulation"

let global_now () = match !current with None -> 0 | Some s -> s.watermark

let running () = !current <> None

(* Hand the tracer our deterministic clock and thread identity.  Both fall
   back to 0/"main" outside a simulation, so tracing recovery paths that run
   before [Sched.run] stays safe (their spans just have zero duration). *)
let () =
  Trace.set_time_source
    ~now:(fun () -> now ())
    ~self:(fun () -> perform_default Self (0, "main"))
