(** Lock-free bounded SPMC run queue (ebsl-style work-stealing deque).

    One owner {!push}es at the back; any domain {!take}s from the front,
    so thieves steal the oldest work.  FIFO per queue: single-worker
    scheduling stays deterministic, and under stealing every element is
    taken exactly once (the QCheck law in [test/native]). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] rounds up to a power of two (≥ 8, default 8192). *)

val push : 'a t -> 'a -> bool
(** Owner only.  [false] when full — the caller must overflow elsewhere
    (the scheduler falls back to its locked injector) rather than drop. *)

val take : 'a t -> 'a option
(** Any domain: dequeue the oldest element ([None] when empty). *)

val length : 'a t -> int
(** Racy snapshot (monitoring only). *)
