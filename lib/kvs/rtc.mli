(** Run-to-completion worker pool: each worker handles its requests start
    to finish (poll → parse → index → data → respond), with batching and
    prefetching enabled, matching the paper's BaseKV.  The paper's two
    active baselines (§5.1) are this one system built two ways:
    {!basekv} (reconfigurable RPC + share-everything locking) and
    {!erpckv} (eRPC + share-nothing exclusive writes).  Through
    {!stepper} it is also the native backend's per-shard worker
    (mutps.native). *)

type t

val basekv : Config.t -> t
(** BaseKV: identical substrate to μTPS — reconfigurable RPC, batching,
    prefetching, same index and store — with share-everything locking
    and clients spreading requests over every worker. *)

val erpckv : Config.t -> t
(** eRPC-KV: BaseKV with an eRPC-style per-worker rx ring, clients
    sending each request to worker key mod n, and exclusive writes with
    no locks on the data path (skew concentrates load on few workers). *)

val backend : t -> Backend.t
val transport : t -> Mutps_net.Transport.t

val dispatch : t -> Mutps_workload.Opgen.op -> int
(** The client-side dispatch function: any worker for BaseKV, key mod n
    for eRPC-KV. *)

val start : t -> unit
(** Spawn one worker per core.  Call after pre-population. *)

val ops_processed : t -> int

type stats = { mutable ops : int; mutable batches : int }

val make_stats : unit -> stats

val stepper :
  Backend.t -> Mutps_net.Transport.t -> lock:Exec.lock_mode -> worker:int ->
  stats -> Mutps_mem.Env.t -> unit -> bool
(** [stepper backend tr ~lock ~worker stats env] is one worker's loop
    body over [env]: each call polls up to a batch of requests and runs
    them through {!Exec}, answering every one through the transport.  It
    returns [false] after an empty poll.  A simulated worker commits after
    a step that returned [true] and backs off [Config.poll_idle_cycles]
    after one that returned [false]; the native backend calls it from a
    shard fiber over a free-running [env]. *)
