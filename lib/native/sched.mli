(** Work-stealing fiber scheduler: one worker per OCaml 5 domain, a
    lock-free SPMC {!Deque} per worker, and a locked injector for work
    arriving from outside the pool (or overflowing a full queue).

    Workers dispatch from the injector first, then their own queue
    (FIFO), then steal the oldest fiber from a pseudo-random victim
    (deterministic per-worker {!Mutps_sim.Rng} streams); when idle they
    busy-poll with
    [Domain.cpu_relax], mirroring the paper's polling servers.  The pool
    runs until every spawned fiber has completed. *)

type t

val create : workers:int -> unit -> t
(** A pool of [workers] domains (not yet running — see {!run}). *)

val spawn : t -> (unit -> unit) -> unit
(** Register a new fiber.  Callable before {!run} and from any domain or
    fiber while the pool runs.  A fiber raising {!Fiber.Stop} completes
    normally; any other exception is re-raised by {!run}. *)

val run : t -> unit
(** Spawn the worker domains and block until all fibers complete.
    Re-raises the first fiber error, if any. *)

val live : t -> int
(** Fibers spawned but not yet completed. *)

val steals : t -> int
(** Successful cross-worker steals so far (monitoring). *)
