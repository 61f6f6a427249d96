(** The execution stage, one implementation for both thread models: index,
    prefetch, copy and respond for a worker's batch of requests.  Only the
    response's last step, [respond], differs between an RTC worker and
    μTPS's MR layer.  All memory traffic is charged through the worker's
    {!Mutps_mem.Env}. *)

module Env = Mutps_mem.Env
module Item = Mutps_store.Item
module Index = Mutps_index.Index_intf
module Request = Mutps_queue.Request
module Hotcache = Mutps_hotset.Hotcache
module Transport = Mutps_net.Transport
module Message = Mutps_net.Message

(** [Locked] uses the seqlock protocol (share-everything); [Exclusive]
    skips it (share-nothing: the owning thread is the only writer). *)
type lock_mode = Locked | Exclusive

let ack_bytes = 16

type respond =
  Env.t -> seq:int -> resp_addr:int -> bytes:int -> value:bytes option -> unit

(* The operands of the next tagged access: [Env.tagged] takes a thunk, so
   the stage allocates its two thunks once and passes their operands
   here instead of allocating a closure per access. *)
type access = { mutable addr : int; mutable size : int }

type t = {
  env : Env.t;
  index : Index.t;
  slab : Mutps_store.Slab.t;
  tr : Transport.t;
  lock : lock_mode;
  worker : int;
  respond : respond;
  hot : Hotcache.t option;
  at : access;
  load : unit -> unit;
  store : unit -> unit;
  (* the batch, in add order: request [i] came from rx slot [seqs.(i)] *)
  mutable n : int;
  seqs : int array;
  msgs : Message.t array;
  prefixes : (int64 * Item.t) list array;
  slot : int array;  (* request i -> its position among the point keys *)
  (* [batch_lookup] and [prefetch_batch] take a whole array, so there is
     one of each length *)
  keys_of_len : int64 array array;
  addrs_of_len : int array array;
  mutable keys : int64 array;
  mutable located : Item.t option array;
}

let create ?hot (backend : Backend.t) tr ~lock ~worker ~respond env =
  let batch = backend.Backend.config.Config.batch in
  let at = { addr = 0; size = 0 } in
  let no_msg =
    { Message.id = -1; client = -1; sent_at = 0; target = -1;
      req = Request.get ~key:0L ~buf:0; value = None }
  in
  {
    env;
    index = backend.Backend.index;
    slab = backend.Backend.slab;
    tr;
    lock;
    worker;
    respond;
    hot;
    at;
    load = (fun () -> Env.load env ~addr:at.addr ~size:at.size);
    store = (fun () -> Env.store env ~addr:at.addr ~size:at.size);
    n = 0;
    seqs = Array.make batch 0;
    msgs = Array.make batch no_msg;
    prefixes = Array.make batch [];
    slot = Array.make batch (-1);
    keys_of_len = Array.init (batch + 1) (fun m -> Array.make m 0L);
    addrs_of_len = Array.init (batch + 1) (fun m -> Array.make m 0);
    keys = [||];
    located = [||];
  }

let tagged_access t site access ~addr ~size =
  t.at.addr <- addr;
  t.at.size <- size;
  Env.tagged t.env site access

let payload t ~seq (msg : Message.t) =
  match msg.Message.value with
  | Some value ->
    tagged_access t "Exec.payload" t.load
      ~addr:(t.tr.Transport.slot_addr seq + 16)
      ~size:(Bytes.length value);
    value
  | None -> invalid_arg "Exec.payload: put without payload"

let respond_with t site ~seq ~bytes ~alloc value =
  let resp_addr = t.tr.Transport.resp_alloc ~worker:t.worker ~bytes:alloc in
  tagged_access t site t.store ~addr:resp_addr ~size:alloc;
  t.respond t.env ~seq ~resp_addr ~bytes ~value

let reply t ~seq value =
  match value with
  | Some v ->
    let bytes = ack_bytes + Bytes.length v in
    respond_with t "Exec.respond_item" ~seq ~bytes ~alloc:bytes value
  | None ->
    respond_with t "Exec.respond_missing" ~seq ~bytes:ack_bytes
      ~alloc:ack_bytes None

let add t ~seq ~prefix msg =
  let i = t.n in
  t.seqs.(i) <- seq;
  t.msgs.(i) <- msg;
  t.prefixes.(i) <- prefix;
  t.n <- i + 1

let locate t =
  let n = t.n in
  t.n <- 0;
  let m = ref 0 in
  for i = 0 to n - 1 do
    match t.msgs.(i).Message.req.Request.kind with
    | Request.Scan -> t.slot.(i) <- -1
    | Request.Get | Request.Put | Request.Delete ->
      t.slot.(i) <- !m;
      incr m
  done;
  let keys = t.keys_of_len.(!m) in
  for i = 0 to n - 1 do
    if t.slot.(i) >= 0 then
      keys.(t.slot.(i)) <- t.msgs.(i).Message.req.Request.key
  done;
  let located = t.index.Index.batch_lookup t.env keys in
  t.keys <- keys;
  t.located <- located;
  let found = ref 0 in
  for j = 0 to Array.length located - 1 do
    if Option.is_some located.(j) then incr found
  done;
  if !found > 0 then begin
    let addrs = t.addrs_of_len.(!found) in
    let k = ref 0 in
    for j = 0 to Array.length located - 1 do
      match located.(j) with
      | Some item ->
        addrs.(!k) <- Item.addr item;
        incr k
      | None -> ()
    done;
    Env.prefetch_batch t.env addrs
  end

(* The batch looked every key up before its first request ran, so a DEL
   ([None]) or an insert ([Some item]) re-points the batch's later
   positions of its key.  Bookkeeping only: no index access, no charge. *)
let relocate t ~from key item =
  for j = from to Array.length t.located - 1 do
    if Int64.equal t.keys.(j) key then t.located.(j) <- item
  done

(* The CR layer already copied [prefix] (cooperative scans, §4) and
   answers the hot set's items, so neither is read again: only their
   bytes are counted. *)
let scan t ~seq ~key ~count prefix =
  let rest =
    if count > 0 then t.index.Index.range t.env ~lo:key ~n:count else []
  in
  let copied = ref 0 and bytes = ref ack_bytes in
  let add_bytes n =
    bytes := !bytes + 16 + n;
    incr copied
  in
  List.iter
    (fun (_, item) -> if !copied < count then add_bytes (Item.size item))
    prefix;
  List.iter
    (fun (k, item) ->
      if !copied < count && not (List.mem_assoc k prefix) then
        match t.hot with
        | Some hot when Hotcache.mem_silent hot k -> add_bytes (Item.size item)
        | Some _ | None -> add_bytes (Bytes.length (Item.read t.env item)))
    rest;
  respond_with t "Exec.respond_scan" ~seq ~bytes:!bytes
    ~alloc:(min !bytes 32_768) None

let execute t i =
  let seq = t.seqs.(i) and msg = t.msgs.(i) in
  let req = msg.Message.req in
  let key = req.Request.key in
  let j = t.slot.(i) in
  match req.Request.kind with
  | Request.Get -> (
    match t.located.(j) with
    | Some item -> reply t ~seq (Some (Item.read t.env item))
    | None -> reply t ~seq None)
  | Request.Put ->
    let value = payload t ~seq msg in
    (match (t.located.(j), t.lock) with
    | Some item, Locked -> Item.write t.env item value t.slab
    | Some item, Exclusive -> Item.write_exclusive t.env item value t.slab
    | None, (Locked | Exclusive) ->
      let item = Item.create t.slab ~value in
      t.index.Index.insert t.env key item;
      relocate t ~from:(j + 1) key (Some item));
    reply t ~seq None
  | Request.Delete ->
    ignore (t.index.Index.remove t.env key);
    (* a reference that outlived the index entry (the CR hot set) must
       see the item is gone *)
    (match t.located.(j) with
    | Some item -> Item.retire t.env item
    | None -> ());
    relocate t ~from:(j + 1) key None;
    reply t ~seq None
  | Request.Scan ->
    scan t ~seq ~key ~count:req.Request.scan_count t.prefixes.(i)
