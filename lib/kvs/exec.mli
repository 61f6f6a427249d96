(** Shared per-operation execution: locate/copy/respond sequences used by
    the run-to-completion baselines and by both μTPS layers.  All memory
    traffic is charged through the worker's {!Mutps_mem.Env}. *)

(** [Locked] uses the seqlock protocol (share-everything); [Exclusive]
    skips it (share-nothing: the owning thread is the only writer). *)
type lock_mode = Locked | Exclusive

val ack_bytes : int
(** Fixed response-header size. *)

val respond_item :
  Mutps_mem.Env.t -> Mutps_net.Transport.t -> worker:int -> seq:int ->
  bytes -> unit
(** Copy a value read from an item to a fresh response-buffer slot and
    answer the request. *)

val respond_missing :
  Mutps_mem.Env.t -> Mutps_net.Transport.t -> worker:int -> seq:int -> unit

val respond_ack :
  Mutps_mem.Env.t -> Mutps_net.Transport.t -> worker:int -> seq:int -> unit

val do_get :
  Mutps_mem.Env.t -> Mutps_net.Transport.t -> worker:int -> seq:int ->
  Mutps_store.Item.t option -> unit

val do_put :
  Mutps_mem.Env.t -> Mutps_net.Transport.t -> lock:lock_mode ->
  index:Mutps_index.Index_intf.t -> slab:Mutps_store.Slab.t -> worker:int ->
  seq:int -> Mutps_net.Message.t -> Mutps_store.Item.t option ->
  Mutps_store.Item.t
(** A put reads its payload from the rx slot (it was DMAed there), updates
    or creates the item, and acks.  Returns the item now holding the key. *)

val do_delete :
  Mutps_mem.Env.t -> Mutps_net.Transport.t ->
  index:Mutps_index.Index_intf.t -> worker:int -> seq:int -> int64 -> unit

val relocate :
  int64 array -> Mutps_store.Item.t option array -> from:int -> int64 ->
  Mutps_store.Item.t option -> unit
(** [relocate keys located ~from key item]: a batch looked its [keys] up
    into [located] at once; after a DEL ([None]) or an insert ([Some item])
    of [key], its positions from [from] on find [item].  No charge. *)

val do_scan :
  Mutps_mem.Env.t -> Mutps_net.Transport.t ->
  index:Mutps_index.Index_intf.t -> worker:int -> seq:int -> key:int64 ->
  count:int -> ?skip:(int64 -> bool) ->
  ?prefix:(int64 * Mutps_store.Item.t) list -> unit -> unit
(** Range scan: [prefix] carries entries already copied by the CR layer
    (cooperative scans, §4); [skip] marks keys whose items need not be read
    again.  The response carries every returned item. *)
