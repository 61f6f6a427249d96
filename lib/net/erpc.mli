(** eRPC-style baseline transport: one dedicated receive ring per worker
    thread, with clients choosing the target worker ([Message.target], e.g.
    key mod n for the share-nothing eRPC-KV).

    Per-message software overhead is slightly lower than reconfigurable
    RPC's (eRPC's highly tuned stack, §5.2.1), modelled as a smaller
    doorbell/parse cost, but the worker count is baked into client-side
    dispatch: [set_workers] raises, reproducing the coordination cost the
    paper's §3.2.1 design avoids.  Slots, response buffers and the send
    path are {!Nic}'s, shared with {!Reconf_rpc}. *)

type t

type config = Nic.config = {
  ring_bytes : int;  (** per-worker rx ring (default 1 MB) *)
  resp_buf_bytes : int;
  doorbell_cycles : int;
}

val default_config : config

val create :
  ?config:config ->
  engine:Mutps_sim.Engine.t ->
  hier:Mutps_mem.Hierarchy.t ->
  layout:Mutps_mem.Layout.t ->
  link:Link.t ->
  workers:int ->
  unit ->
  t

val transport : t -> Transport.t
