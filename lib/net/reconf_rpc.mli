(** Reconfigurable RPC (§3.2.1): a single-queue receive buffer shared by
    all worker threads.

    The NIC appends every client's requests to one byte ring (SRQ + MP-RQ
    semantics) and DMA-writes them through DDIO; worker [i] of [n] claims
    exactly the slots with sequence [m mod n = i].  Changing the worker
    count is a server-local operation: {!set_workers} arms a switch at the
    current write position (the "predefined slot" of §3.5) — slots below it
    are claimed under the old modulus, slots at or above under the new one,
    and no client coordination happens.  Each worker also owns a small
    response buffer that is reused across batches ({!Nic}). *)

type t

type config = Nic.config = {
  ring_bytes : int;  (** rx ring capacity (default 4 MB — sized to the LLC) *)
  resp_buf_bytes : int;  (** per-worker response buffer (default 64 KB) *)
  doorbell_cycles : int;  (** MMIO cost of posting a send *)
}

val default_config : config

val create :
  ?config:config ->
  engine:Mutps_sim.Engine.t ->
  hier:Mutps_mem.Hierarchy.t ->
  layout:Mutps_mem.Layout.t ->
  link:Link.t ->
  max_workers:int ->
  workers:int ->
  unit ->
  t

val transport : t -> Transport.t

val workers : t -> int
val set_workers : t -> int -> unit
val reconfig_in_progress : t -> bool

val responded : t -> int
val outstanding : t -> int
