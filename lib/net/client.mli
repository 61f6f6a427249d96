(** Closed-loop client pool.

    Each client keeps [window] requests outstanding: when a response lands,
    it draws the next operation from its workload generator and sends it.
    Clients live on the other side of the link — their only cost is wire
    time — and they are where end-to-end latency (Figure 10) is measured.

    [reset_stats] supports warm-up: measurement counters restart without
    disturbing the closed loop. *)

type config = {
  clients : int;
  window : int;  (** outstanding requests per client *)
  spec : Mutps_workload.Opgen.spec;
  seed : int;
  dispatch : Mutps_workload.Opgen.op -> int;
      (** target worker for per-thread transports; return -1 for
          single-queue transports *)
}

val uniform_dispatch : Mutps_workload.Opgen.op -> int
(** Always -1 (single-queue transport picks). *)

val mod_key_dispatch : workers:int -> Mutps_workload.Opgen.op -> int
(** Key mod n — eRPC-KV's share-nothing dispatch (§5.1). *)

type t

val start :
  engine:Mutps_sim.Engine.t -> link:Link.t -> transport:Transport.t ->
  config -> t
(** Registers the transport response callback and schedules the first
    window of every client. *)

val config : t -> config

val set_spec : t -> Mutps_workload.Opgen.spec -> unit
(** Dynamic workloads (Figure 14): subsequent operations follow the new
    spec. *)

val completed : t -> int
(** Responses received since the last {!reset_stats}. *)

val sent : t -> int
val latency : t -> Mutps_sim.Stats.Hist.t
val monitor : t -> Mutps_sim.Stats.Monitor.t
(** Completions bucketed into 1 ms windows (for timeline plots). *)

val reset_stats : t -> unit

val set_recording : t -> bool -> unit
(** While off, responses still drive the closed loop and count towards
    {!completed}, but skip the latency histogram and throughput monitor —
    used by the interval sampler's functional-warming regime.  On by
    default. *)

val stop : t -> unit
(** Open the loop: from now on a response issues no new request, so the
    requests in flight drain. *)

val outstanding : t -> int
(** Requests sent and not yet answered.  After {!stop} and a drain,
    [outstanding = 0] and [sent = completed] say that every request was
    answered exactly once: a lost reply stays outstanding, a doubled one
    counts twice in {!completed}. *)

val payload : key:int64 -> size:int -> bytes
(** Deterministic put payload for a key — lets tests verify end-to-end
    value integrity. *)

val on_completion : t -> (Mutps_workload.Opgen.op -> bytes option -> unit) -> unit
(** Observation hook: called for every response with the originating op and
    any returned value. *)
