(** Native socket server: the real-machine twin of the simulated KVS.

    A TCP or Unix-domain listener speaking {!Resp} feeds share-nothing
    backend shards (key mod shards).  Each shard is one fiber on the
    {!Sched} work-stealing pool that calls the simulator's own loop
    bodies — {!Mutps_kvs.Rtc.stepper} for the run-to-completion systems
    ([Rtc_pool]), or a 2-core {!Mutps_kvs.Mutps}'s steppers ([Split]) —
    over free-running memory environments
    ({!Mutps_mem.Env.make_freerun}), so no simulated charge or DES effect
    is ever produced.  So a shard's steps run one at a time, on any
    domain, and a shard answers what it was given before it yields to the
    scheduler; shards run in parallel.

    One poller fiber owns every connection; a shard fiber never touches
    one.  Each turn the poller takes the replies the shards posted, puts
    each into the slot its request queued on its connection and encodes
    every connection's filled prefix, so replies leave in request order
    whichever shard fiber completes them.  It then writes, makes one
    [poll(2)] over the listener and every connection not closing, and
    accepts or reads only where the kernel reports readiness.  The poll
    does not wait while a connection is open; with none, it waits up to
    1 ms for the listener.  Every socket is non-blocking, and reads and writes go
    straight between the socket and the connection's own buffers
    ({!Nbio}), so a turn neither waits nor copies through a stack
    buffer.  [poll] has no [FD_SETSIZE] limit: the number of clients is
    bounded by [ulimit -n] alone.

    One connection's trouble costs only that connection.  A read or
    write that fails, because the peer is gone ([EPIPE], [ECONNRESET])
    or for any other reason ([ETIMEDOUT], [EHOSTUNREACH], ...), drops
    it with the replies it is still owed; a connection that lets about
    64 MiB of replies queue up unread is dropped too.  An accept that
    fails with a network error pending on the new connection
    ([ECONNABORTED], [ENETDOWN], [EPROTO], [ENOPROTOOPT], [EHOSTDOWN],
    [ENONET], [EHOSTUNREACH], [EOPNOTSUPP], [ENETUNREACH]) is retried,
    as accept(2) asks.  Starting a server sets SIGPIPE to ignored for
    the whole process, so a vanished client cannot kill it. *)

type mode =
  | Rtc_pool of Mutps_kvs.Exec.lock_mode
      (** run-to-completion: [Locked] = BaseKV, [Exclusive] = eRPC-KV *)
  | Split
      (** μTPS: {!Mutps_kvs.Mutps.stepper} as the CR and as the MR step,
          {!Mutps_kvs.Mutps.refresh_hotset} rebuilding the CR hot set
          every 200 ms *)

type listen = Unix_path of string | Tcp of string * int  (** host, port *)

type config = {
  mode : mode;
  listen : listen;
  domains : int;  (** scheduler worker domains *)
  shards : int;  (** share-nothing backend shards (key mod shards) *)
  keyspace : int;  (** keys preloaded before serving (0 = start empty) *)
  value_size : int;  (** preloaded value bytes *)
  hot_cap : int;  (** CR hot-set size per shard ([Split] mode) *)
  duration_s : float option;
      (** stop after this long; [None] = run until {!stop} *)
  log : string -> unit;
      (** lifecycle lines; called only from the domain invoking
          {!run}/{!launch} so a DLS-bound output sink sees them *)
}

val default_config : config
(** [Split], [unix:/tmp/mutps.sock], 2 domains, 1 shard, empty store. *)

type summary = {
  responded : int;  (** replies posted by the KVS layers *)
  cr_hits : int;  (** answered at the CR layer ([Split] mode) *)
  forwarded : int;  (** forwarded CR→MR ([Split] mode) *)
  mr_ops : int;  (** executed at the MR layer ([Split] mode) *)
  steals : int;  (** scheduler cross-worker steals *)
  conns : int;  (** connections accepted *)
}

val run : config -> summary
(** Bind, serve until the duration elapses (or forever), return the
    tallies.  Blocks the calling domain. *)

type handle

val launch : config -> handle
(** Bind the listener synchronously (connects succeed as soon as this
    returns), then serve on a fresh domain. *)

val stop : handle -> unit
(** Ask the server to wind down; fibers exit at their next dispatch. *)

val wait : handle -> summary
(** Join the serving domain. *)
