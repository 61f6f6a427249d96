(** Effect-based fibers: the native mirror of {!Mutps_sim.Simthread}'s
    cooperative API, scheduled by {!Sched} instead of the DES engine.  A
    fiber has one effect, {!yield}.  Deep handlers travel with the captured
    continuation, so a fiber stolen to another domain keeps yielding
    through the same handler. *)

exception Stop
(** Cooperative-shutdown signal: the server's shard and poller fibers
    raise it at a turn boundary once the server stops; {!run} treats it
    as a normal exit. *)

val yield : unit -> unit
(** Hand the calling fiber's continuation to its [schedule] (under
    {!Sched}, the back of its worker's run queue).  Must be called from
    inside {!run}. *)

val run :
  schedule:((unit -> unit) -> unit) ->
  on_done:(exn option -> unit) -> (unit -> unit) -> unit
(** [run ~schedule ~on_done body] starts [body] as a fiber under the
    effect handler.  [schedule] is called with a ready thunk whenever the
    fiber can continue; [on_done] fires exactly once when the body
    returns ([None]), raises {!Stop} ([None]) or raises otherwise
    ([Some exn]).  Returns as soon as the fiber first suspends. *)
