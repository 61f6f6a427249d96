(** First-class transport interface implemented by {!Reconf_rpc}
    (μTPS / BaseKV) and {!Erpc} (the eRPC-KV baseline), both over the
    NIC side in {!Nic}.

    Lifecycle of a message: a client calls [deliver] (at its arrival time);
    a worker discovers it with [poll] (returning the rx slot sequence
    number), copies data to/from the rx slot and a response buffer obtained
    with [resp_alloc], and finishes with [post_response], which pushes the
    response onto the wire and fires the registered response callback at the
    client-side arrival time. *)

type t = {
  deliver : Message.t -> unit;
  poll : Mutps_mem.Env.t -> worker:int -> (int * Message.t) option;
  slot_addr : int -> int;  (** rx payload address of a slot seq *)
  resp_alloc : worker:int -> bytes:int -> int;
  post_response :
    Mutps_mem.Env.t ->
    seq:int ->
    resp_addr:int ->
    bytes:int ->
    value:bytes option ->
    unit;
  set_on_response : (Message.t -> bytes option -> unit) -> unit;
  set_workers : int -> unit;
  reconfig_in_progress : unit -> bool;
}
