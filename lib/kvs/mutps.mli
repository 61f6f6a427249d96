(** The μTPS in-memory KVS (§3): worker threads split into a cache-resident
    (CR) layer — request polling/parsing, hot-item service, responses — and
    a memory-resident (MR) layer — full index, batched prefetch traversal,
    data copies — connected by the CR-MR queue.

    [set_split] implements §3.5's thread reassignment: the transport is
    switched at a predefined slot and each thread migrates between roles
    without losing messages; [set_hot_target] resizes the hot cache at the
    next refresh; [set_mr_ways] reallocates LLC ways (CAT).  With the
    Hash index configuration this is μTPS-H, with Tree it is μTPS-T. *)

type t

val create : ?ncr:int -> ?transport:Mutps_net.Transport.t -> Config.t -> t
(** [ncr] is the initial cache-resident thread count (default:
    cores / 4, at least 1, leaving at least one MR thread).  [transport]
    is the request transport; by default a {!Mutps_net.Reconf_rpc} over
    the simulated link.  The native backend passes its own. *)

val backend : t -> Backend.t
val transport : t -> Mutps_net.Transport.t

val start : t -> unit
(** Spawn the worker threads and the manager thread.  Call after
    pre-population. *)

val stepper : t -> int -> Mutps_mem.Env.t -> unit -> bool
(** [stepper t w env] is worker [w]'s loop body over [env]: each call
    takes one CR step or one MR step, by the worker's current role, and
    returns whether it made progress; a step that made none is followed
    by the role-switch attempt (§3.5).  {!start}'s simulated workers wrap
    it with the commit, the idle back-off and the per-layer busy
    accounting; the native backend calls it from a shard fiber over a
    free-running [env]. *)

val refresh_hotset : t -> Mutps_mem.Env.t -> unit
(** Rebuild the hot set from the tracker's samples and publish it
    (§3.2.2): the manager's work, which {!start}'s manager thread runs
    every [refresh_cycles] and the native backend on its own clock. *)

(** {1 Observability} *)

val ncr : t -> int
val nmr : t -> int
val hot_target : t -> int
val hot_size : t -> int
val mr_ways : t -> int
val cr_hits : t -> int
(** Requests served entirely at the cache-resident layer. *)

val forwarded : t -> int

val layer_stats : t -> int * int * int * int
(** [(cr_busy_cycles, mr_busy_cycles, mr_ops, mr_batches)]: diagnostic
    accounting of where worker time goes. *)

val responded : t -> int
(** Responses posted to the transport (server-side throughput signal). *)

val reconfig_settled : t -> bool
(** No thread is between roles and the transport switch is committed. *)

(** {1 Reconfiguration (§3.5)} *)

val set_split : t -> ncr:int -> unit
(** Retarget to [ncr] CR threads; must leave at least one thread per
    layer. *)

val set_hot_target : t -> int -> unit
(** Number of hot items to cache (0 disables the hot path; applied at the
    next hot-set refresh). *)

val refresh_now : t -> unit
(** Ask the manager to refresh the hot set at its next wakeup rather than
    waiting a full period. *)

val set_mr_ways : t -> int -> unit
(** LLC ways the memory-resident layer may allocate into (the
    cache-resident layer always keeps every way, per the paper's offline
    profiling). *)
