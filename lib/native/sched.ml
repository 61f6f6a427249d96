(* Work-stealing fiber scheduler: one worker per OCaml 5 domain, one
   lock-free SPMC run queue per worker, a mutex-guarded injector for
   spawns arriving from outside the pool (the control domain, or
   overflow when a local queue is full), whose lock a dispatch takes
   only while an [Atomic] count says the injector holds a task.

   Scheduling discipline (ebsl-style):
   - a worker checks the injector, then consumes its own queue FIFO (a
     yielding fiber goes to the back, so local work round-robins and can
     never starve external submissions — even on one worker);
   - when both are empty it steals the oldest fiber from a
     pseudo-randomly chosen victim (deterministic per-worker xoshiro
     streams from the simulator's Rng — no [Random], rule R1);
   - when everything is empty it spins with [Domain.cpu_relax]: this is a
     polling runtime by design, matching the paper's busy-poll servers.

   Workers run until every spawned fiber has completed ([live] reaches 0).
   A yielding fiber re-enters through [schedule] — the deep handler
   travels with the continuation (see Fiber). *)

(* Distinguishes schedulers when several live in one process (a server
   and a test harness, say): a domain's DLS slot names the scheduler it
   works for, so a spawn arriving from a foreign domain routes to the
   injector instead of a foreign run queue. *)
let ids = Atomic.make 0

type slot = { owner : int; index : int }

let slot_key : slot option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

type t = {
  id : int;
  nworkers : int;
  queues : (unit -> unit) Deque.t array;
  inj_lock : Mutex.t;
  injector : (unit -> unit) Queue.t;
  injected : int Atomic.t;
      (* tasks pushed on [injector] and not yet taken: bumped after the
         push's unlock, dropped after a take, so it falls short of the
         queue only while an [inject] is between its unlock and its bump *)
  live : int Atomic.t;  (* spawned fibers not yet completed *)
  steals : int Atomic.t;
  err_lock : Mutex.t;
  errors : exn Queue.t;
}

let create ~workers () =
  if workers < 1 then invalid_arg "Sched.create: workers < 1";
  {
    id = Atomic.fetch_and_add ids 1;
    nworkers = workers;
    queues = Array.init workers (fun _ -> Deque.create ());
    inj_lock = Mutex.create ();
    injector = Queue.create ();
    injected = Atomic.make 0;
    live = Atomic.make 0;
    steals = Atomic.make 0;
    err_lock = Mutex.create ();
    errors = Queue.create ();
  }

let inject t task =
  Mutex.lock t.inj_lock;
  Queue.push task t.injector;
  Mutex.unlock t.inj_lock;
  Atomic.incr t.injected

(* Route a ready thunk: onto the calling worker's own queue when the
   caller belongs to this scheduler, else through the injector. *)
let schedule t task =
  match Domain.DLS.get slot_key with
  | Some s when s.owner = t.id ->
    if not (Deque.push t.queues.(s.index) task) then inject t task
  | Some _ | None -> inject t task

let spawn t body =
  Atomic.incr t.live;
  let task () =
    Fiber.run
      ~schedule:(fun thunk -> schedule t thunk)
      ~on_done:(fun err ->
        (match err with
        | None -> ()
        | Some e ->
          Mutex.lock t.err_lock;
          Queue.push e t.errors;
          Mutex.unlock t.err_lock);
        Atomic.decr t.live)
      body
  in
  schedule t task

let live t = Atomic.get t.live
let steals t = Atomic.get t.steals

let next_task t ~index rng =
  (* injector first: external submissions are rare, and checking them on
     every dispatch keeps a single worker fair — a fiber that yields back
     onto the local queue can never starve work arriving from outside;
     the lock is taken only when the count says there is work *)
  let from_injector =
    if Atomic.get t.injected > 0 && Mutex.try_lock t.inj_lock then begin
      let v = Queue.take_opt t.injector in
      Mutex.unlock t.inj_lock;
      if Option.is_some v then Atomic.decr t.injected;
      v
    end
    else None
  in
  match from_injector with
  | Some _ as some -> some
  | None -> (
    match Deque.take t.queues.(index) with
    | Some _ as some -> some
    | None ->
      if t.nworkers = 1 then None
      else begin
        (* one random probe plus a sweep, so a loaded victim is found
           quickly without hammering one queue *)
        let start = Mutps_sim.Rng.int rng (t.nworkers - 1) in
        let stolen = ref None in
        let k = ref 0 in
        while !stolen = None && !k < t.nworkers - 1 do
          let victim = (index + 1 + ((start + !k) mod (t.nworkers - 1)))
                       mod t.nworkers in
          (match Deque.take t.queues.(victim) with
          | Some _ as some ->
            Atomic.incr t.steals;
            stolen := some
          | None -> ());
          incr k
        done;
        !stolen
      end)

let worker_loop t ~index =
  Domain.DLS.set slot_key (Some { owner = t.id; index });
  let rng = Mutps_sim.Rng.create (0x5EED + index) in
  let continue = ref true in
  while !continue do
    if Atomic.get t.live <= 0 then continue := false
    else begin
      match next_task t ~index rng with
      | Some task -> task ()
      | None -> Domain.cpu_relax ()
    end
  done

(* Run the pool to completion: returns once every fiber spawned (before
   or during the run) has finished.  Raises the first fiber error, if
   any. *)
let run t =
  let domains =
    Array.init t.nworkers (fun index ->
        Domain.spawn (fun () -> worker_loop t ~index))
  in
  Array.iter Domain.join domains;
  Mutex.lock t.err_lock;
  let err = Queue.take_opt t.errors in
  Mutex.unlock t.err_lock;
  match err with None -> () | Some e -> raise e
