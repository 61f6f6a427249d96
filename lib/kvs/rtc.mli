(** Run-to-completion worker pool: each worker handles its requests start
    to finish (poll → parse → index → data → respond), with batching and
    prefetching enabled, matching the paper's BaseKV.  Parameterized by
    transport and lock mode, this pool is both BaseKV (reconfigurable RPC +
    share-everything locking) and eRPC-KV (eRPC + share-nothing exclusive
    writes) — and, via {!Substrate}, the native backend's per-shard worker
    (mutps.native): same loop, fibers instead of simulated threads. *)

type stats = { mutable ops : int; mutable batches : int }

val make_stats : unit -> stats

val worker_body :
  ?substrate:Substrate.t -> Backend.t -> Mutps_net.Transport.t ->
  lock:Exec.lock_mode -> worker:int -> stats -> Mutps_sim.Simthread.ctx ->
  unit
(** One worker's infinite poll/execute loop.  Under the default substrate
    it must run as a simulated thread; under a native substrate it runs as
    a fiber and exits by the substrate raising (e.g. at server shutdown). *)

val start :
  Backend.t -> Mutps_net.Transport.t -> lock:Exec.lock_mode ->
  workers:int -> stats array
(** Spawn [workers] RTC worker threads; returns one live stats record per
    worker. *)
