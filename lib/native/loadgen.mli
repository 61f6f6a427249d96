(** Closed-loop load generator for the native server.

    Each connection keeps exactly one request outstanding, drawing
    operations from its own deterministic {!Mutps_workload.Opgen} stream;
    the connections awaiting a reply are multiplexed over one
    {!Nbio.poll} from the calling thread, which waits up to a second in
    a blocking section, and each ready one is read by its index.
    [poll] has no [FD_SETSIZE] limit, so [conns] is bounded by
    [ulimit -n] alone.  Put payloads come from
    {!Mutps_net.Client.payload}, the same deterministic bytes the
    simulated clients write. *)

type config = {
  connect : Server.listen;
  conns : int;
  ops : int;  (** total operations across every connection *)
  spec : Mutps_workload.Opgen.spec;
  seed : int;
}

type result = {
  completed : int;
  errors : int;  (** [-ERR] replies *)
  wrong : int;
      (** replies other than the one the operation owes, given that every
          value is its key's {!Mutps_net.Client.payload}: a GET answered
          with another value, a SET or DEL not answered [+OK] *)
  get_hits : int;
  get_misses : int;
  elapsed_ns : int;
  hist : Mutps_sim.Stats.Hist.t;  (** per-op latency in nanoseconds *)
}

exception Protocol_error of string
(** The server broke the protocol, closed a connection or lost one. *)

val run : config -> result
(** Connect, drive the closed loops until [ops] replies, disconnect. *)

val ops_per_s : result -> float
val percentile_us : result -> float -> float
