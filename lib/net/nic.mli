(** The NIC side {!Reconf_rpc} and {!Erpc} share: rx rings the NIC
    DMA-writes requests into, the table of delivered slots, one response
    buffer per worker and the send path.  The two differ only in which
    ring a message lands in, its slot sequence number and which worker
    polls it.  [name], the owning module's, prefixes every error. *)

type config = {
  ring_bytes : int;  (** capacity of each rx ring *)
  resp_buf_bytes : int;  (** per-worker response buffer *)
  doorbell_cycles : int;  (** MMIO cost of posting a send *)
}

type t

type ring
(** A head line plus the DMA region requests are appended to. *)

val create :
  name:string ->
  config:config ->
  engine:Mutps_sim.Engine.t ->
  hier:Mutps_mem.Hierarchy.t ->
  layout:Mutps_mem.Layout.t ->
  link:Link.t ->
  resp_name:string ->
  workers:int ->
  t
(** Lays out the response buffers, in a region named [resp_name]. *)

val ring : Mutps_mem.Layout.t -> name:string -> config -> ring
(** Lays out one rx ring.  Layout order fixes simulated addresses, so
    each owner keeps its order of rings and {!create}. *)

val written : ring -> int
(** Messages delivered into the ring so far. *)

val deliver : t -> ring -> seq:int -> Message.t -> unit
(** Append a message as slot [seq] (carried in its [req.buf]): 16-byte
    aligned, refused ([Failure]) past half the ring in unanswered bytes,
    never straddling the wrap; the NIC DMA-writes the body, then the head
    line. *)

val empty_poll : Mutps_mem.Env.t -> ring -> unit
(** Charge a poll that found nothing: a load of the head line. *)

val claim : t -> Mutps_mem.Env.t -> int -> (int * Message.t) option
(** Hand out slot [seq], charging the load of its header line. *)

val outstanding : t -> int
val responded : t -> int

val transport :
  t ->
  deliver:(Message.t -> unit) ->
  poll:(Mutps_mem.Env.t -> worker:int -> (int * Message.t) option) ->
  set_workers:(int -> unit) ->
  reconfig_in_progress:(unit -> bool) ->
  Transport.t
(** The owner's routing plus the NIC's [slot_addr], [resp_alloc] (the
    next 16-byte chunk of a worker's response buffer, wrapping) and
    [post_response] (doorbell, commit, DMA read of the response, link
    transmit; the slot leaves the table, so a second answer fails as an
    unknown slot, and its ring's bytes are freed). *)
