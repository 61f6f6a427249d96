(** Discrete-event simulation engine.

    Time is measured in CPU cycles of the simulated machine (an [int]).
    Events are callbacks scheduled at absolute times; ties are broken by
    insertion order, which makes every run fully deterministic. *)

type t

val create : unit -> t
(** A fresh engine with the clock at cycle 0 and no pending events. *)

val id : t -> int
(** Process-wide serial of this engine, assigned at {!create}.  Lets
    observability state (metric registries, trace collectors) refer to a
    specific engine without holding it. *)

val now : t -> int
(** Current simulated time in cycles. *)

val schedule : t -> at:int -> (unit -> unit) -> unit
(** [schedule t ~at fn] runs [fn] when the clock reaches [at].  [at] must not
    be in the past. *)

val schedule_after : t -> delay:int -> (unit -> unit) -> unit
(** [schedule_after t ~delay fn] is [schedule t ~at:(now t + delay) fn]. *)

val pending : t -> int
(** Number of events not yet dispatched. *)

val dispatched : t -> int
(** Total events dispatched since {!create}.  Deterministic for a
    deterministic simulation; the engine micro-benchmark divides GC
    allocation deltas by it to report allocated-words-per-event. *)

val run : t -> until:int -> unit
(** Dispatch events in time order until the clock would pass [until] or no
    events remain.  The clock is left at [until] (or at the last event time
    if the queue drained first). *)

val run_all : t -> unit
(** Dispatch every event until the queue is empty. *)

val stop : t -> unit
(** Abort the current [run]/[run_all] after the in-flight event returns.
    Remaining events stay queued. *)

(** {1 Runtime verification}

    With [debug_checks] enabled, the substrate cross-validates the static
    lint's invariants dynamically: {!Mutps_mem.Env.assert_committed} fails
    on shared-state reads with uncommitted cycles, and {!Simthread}
    accounts parked/resumed threads so lost or doubled wake-ups surface.
    Off by default; the checks are branch-cheap but sit on hot paths. *)

val set_debug_checks : t -> bool -> unit
val debug_checks : t -> bool

val parked : t -> int
(** Threads currently parked in {!Simthread.suspend} (tracked only while
    [debug_checks] is on; 0 otherwise). *)

val note_park : t -> unit
(** Used by {!Simthread}'s effect handler; not for general use. *)

val note_resume : t -> unit
(** Used by {!Simthread}'s effect handler; not for general use. *)

(** {1 Race sanitizer hooks}

    An optional happens-before race detector (implemented in [lib/san])
    plugs into the engine as a record of closures.  Instrumented layers —
    {!Simthread} commit boundaries, [Env] accesses, queue and seqlock
    synchronization — invoke the hooks through their engine handle, so the
    engine itself stays ignorant of the detector's semantics and [lib/san]
    incurs no dependency cycle.  [None] (the default) costs one branch per
    hook site. *)

type sanitizer = {
  san_thread : string -> int;
      (** Register a simulated thread by name; returns its thread id. *)
  san_access :
    tid:int -> site:string -> time:int -> write:bool -> lo:int -> hi:int -> unit;
      (** A charged access to simulated bytes [\[lo, hi)] at simulated
          [time], from the access site tagged [site]. *)
  san_acquire : tid:int -> obj:int -> unit;
  san_release : tid:int -> obj:int -> unit;
      (** Untimed edges through a sync object: an acquire inherits every
          release on the same object that already happened in real dispatch
          order (models structures whose internal synchronization the
          simulation does not charge). *)
  san_sched_acquire : tid:int -> time:int -> unit;
  san_sched_release : tid:int -> time:int -> unit;
      (** Simulated-time-indexed edges: a release at commit stamps the
          committed time; an acquire at slice start inherits only releases
          stamped at or before the slice's start time. *)
  san_obj : string -> int;  (** Intern a sync object by name. *)
  san_lock : tid:int -> obj:int -> unit;
  san_unlock : tid:int -> obj:int -> unit;
      (** Lockset tracking, e.g. an {!Mutps_store.Item} version lock. *)
  san_sync_range : lo:int -> hi:int -> on:bool -> unit;
      (** Mark/unmark bytes as synchronization words (seqlock headers, ring
          cursors): exempt from race pairing, they generate edges instead. *)
  san_protect : obj:int -> lo:int -> hi:int -> unit;
  san_unprotect : lo:int -> hi:int -> unit;
      (** Declare bytes writable only while holding [obj]. *)
}

val set_sanitizer : t -> sanitizer option -> unit
val sanitizer : t -> sanitizer option

val set_sanitizer_factory : (unit -> sanitizer) option -> unit
(** Domain-local: when set, {!create} attaches [f ()] to every new engine
    built in this domain (new domains inherit the parent's factory at
    spawn).  Lets a sanitizer reach engines constructed deep inside
    experiment code; see [San.sanitized]. *)

val current_sanitizer_factory : unit -> (unit -> sanitizer) option
(** The factory currently installed in this domain, for callers that
    save/restore it around a scoped run. *)

(** {1 Observability tracer hooks}

    An optional trace collector (implemented in [lib/trace]) plugs into
    the engine exactly like the sanitizer: a record of closures invoked by
    instrumented layers through their engine handle.  [None] (the
    default) costs one branch per hook site and allocates nothing — the
    "zero-cost-when-off" contract: the A rules certify the trace-off
    path, and the perf ledger's [trace.overhead_frac] measures the
    trace-on cost. *)

type tracer = {
  tr_thread : string -> int;
      (** Register a simulated thread's track by name; returns its trace
          id. *)
  tr_slice : tid:int -> t0:int -> t1:int -> name:string -> unit;
      (** A completed span [\[t0, t1\]] of simulated time on a thread
          track (an [Env.tagged] region). *)
  tr_instant : tid:int -> time:int -> name:string -> arg:string -> unit;
      (** A point event (role switch, seqlock bounce, tuner decision);
          [tid = -1] targets the collector's global events track. *)
  tr_counter : time:int -> track:string -> value:float -> unit;
      (** One sample of a named counter track (ring occupancy, hit
          rates). *)
  tr_cycles : tid:int -> site:string -> cycles:int -> unit;
      (** Charged cycles attributed to the [Env] site path active when
          the charge was made; feeds the per-site cycle profiler. *)
}

val set_tracer : t -> tracer option -> unit
val tracer : t -> tracer option

val instrumented : t -> bool
(** [sanitizer t <> None || tracer t <> None], maintained by the setters.
    Hot layers branch on this single boolean to bypass every
    observability hook; attaching a sanitizer or tracer at any time
    flips it, so the bypass can never go stale. *)

val set_tracer_factory : (t -> tracer) option -> unit
(** Domain-local: when set, {!create} attaches [f engine] to every new
    engine built in this domain (new domains inherit the parent's factory
    at spawn; the factory receives the engine so a collector can pace
    itself off the engine clock); see [Trace.traced]. *)

val current_tracer_factory : unit -> (t -> tracer) option
(** The factory currently installed in this domain, for callers that
    save/restore it around a scoped run. *)
