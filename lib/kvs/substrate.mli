(** The execution-substrate seam of the KVS loops ({!Rtc.worker_body},
    {!Mutps.worker_body}, {!Mutps.manager_body}): how they build their
    memory environment and let time pass.  Under the DES ({!sim}) they are
    simulated threads; the native backend (mutps.native) substitutes fiber
    yields and wall-clock sleeps, and may raise from any function to
    unwind a loop at shutdown. *)

type t = {
  make_env : Mutps_sim.Simthread.ctx -> core:int -> Mutps_mem.Env.t;
  idle : Mutps_sim.Simthread.ctx -> unit;  (** a poll found nothing *)
  flush : Mutps_sim.Simthread.ctx -> unit;  (** end of a batch or a step *)
  delay : Mutps_sim.Simthread.ctx -> int -> unit;
      (** sleep for this many (simulated) cycles *)
}

val sim : Config.t -> hier:Mutps_mem.Hierarchy.t -> t
(** The simulated substrate: charged environments, [idle] backs off
    [poll_idle_cycles], [flush] commits, [delay] is {!Mutps_sim.Simthread.delay}. *)
