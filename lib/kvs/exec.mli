(** The execution stage, one implementation for both thread models: index,
    prefetch, copy and respond for a worker's batch of requests (§3.3).  A
    run-to-completion worker ({!Rtc}) runs it over the requests it polled;
    μTPS's MR layer ({!Mutps}) over a batch a CR thread forwarded.  Only
    the last step differs, and it is a function with
    {!Mutps_net.Transport.t}'s [post_response] type: an RTC worker and the
    CR layer's hot hits answer through the transport, while the MR layer
    records the response in the forwarded request, for the CR thread to
    post after reaping (§3.4's tail-pointer piggyback).  All memory
    traffic is charged through the worker's {!Mutps_mem.Env}. *)

(** [Locked] uses the seqlock protocol (share-everything); [Exclusive]
    skips it (share-nothing: the owning thread is the only writer). *)
type lock_mode = Locked | Exclusive

val ack_bytes : int
(** Fixed response-header size. *)

type respond =
  Mutps_mem.Env.t -> seq:int -> resp_addr:int -> bytes:int ->
  value:bytes option -> unit

type t
(** One worker's stage: its environment, its response writer and a batch
    of the configured size, all allocated once. *)

val create :
  ?hot:Mutps_hotset.Hotcache.t -> Backend.t -> Mutps_net.Transport.t ->
  lock:lock_mode -> worker:int -> respond:respond -> Mutps_mem.Env.t -> t
(** Responses go to slots of [worker]'s response buffer.  [hot] is the CR
    layer's hot set, whose items a scan counts without reading them. *)

val add :
  t -> seq:int -> prefix:(int64 * Mutps_store.Item.t) list ->
  Mutps_net.Message.t -> unit
(** Append the request in rx slot [seq] to the batch.  [prefix] holds a
    scan's entries that the CR layer already copied (§4); it is [[]]
    otherwise. *)

val locate : t -> unit
(** Close the batch of the requests added since the last [locate]: look
    their point keys up in one batched lookup and prefetch the items found
    (§3.3: batching covers the copy stage's misses too). *)

val execute : t -> int -> unit
(** Run the batch's [i]th request and respond to it.  Requests run in
    batch order: a DEL or an insert re-points the later lookups of its
    key, and a DEL retires the item it removed. *)

val payload : t -> seq:int -> Mutps_net.Message.t -> bytes
(** A put's value, charged as a read of its rx slot (the NIC DMAed it
    there). *)

val reply : t -> seq:int -> bytes option -> unit
(** Write a response to a fresh response-buffer slot and respond: the
    value a GET found, or a bare header ([None]) for a miss or an ack. *)
