(** Run-to-completion worker pool: each worker handles its requests start
    to finish (poll → parse → index → data → respond), with batching and
    prefetching enabled, matching the paper's BaseKV.  Parameterized by
    transport and lock mode, this pool is both BaseKV (reconfigurable RPC +
    share-everything locking) and eRPC-KV (eRPC + share-nothing exclusive
    writes) — and, through {!stepper}, the native backend's per-shard
    worker (mutps.native). *)

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

val start :
  Backend.t -> Mutps_net.Transport.t -> lock:Exec.lock_mode ->
  workers:int -> stats array
(** Spawn [workers] RTC worker threads; returns one live stats record per
    worker. *)
