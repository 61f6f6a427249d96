(** Shared per-operation execution: locate/copy/respond sequences used by
    the run-to-completion baselines and by both μTPS layers.  All memory
    traffic is charged through the worker's {!Mutps_mem.Env}. *)

module Env = Mutps_mem.Env
module Item = Mutps_store.Item
module Index = Mutps_index.Index_intf
module Request = Mutps_queue.Request
module Transport = Mutps_net.Transport
module Message = Mutps_net.Message

(** [Locked] uses the seqlock protocol (share-everything); [Exclusive]
    skips it (share-nothing: the owning thread is the only writer). *)
type lock_mode = Locked | Exclusive

let ack_bytes = 16

(* Copy a value read from an item to a fresh response-buffer slot and
   answer the request. *)
let respond_item env (tr : Transport.t) ~worker ~seq value =
  let bytes = ack_bytes + Bytes.length value in
  let resp_addr = tr.Transport.resp_alloc ~worker ~bytes in
  Env.tagged env "Exec.respond_item" (fun () ->
      Env.store env ~addr:resp_addr ~size:bytes);
  tr.Transport.post_response env ~seq ~resp_addr ~bytes ~value:(Some value)

let respond_missing env (tr : Transport.t) ~worker ~seq =
  let resp_addr = tr.Transport.resp_alloc ~worker ~bytes:ack_bytes in
  Env.tagged env "Exec.respond_missing" (fun () ->
      Env.store env ~addr:resp_addr ~size:ack_bytes);
  tr.Transport.post_response env ~seq ~resp_addr ~bytes:ack_bytes ~value:None

let respond_ack = respond_missing

let do_get env tr ~worker ~seq item_opt =
  match item_opt with
  | Some item -> respond_item env tr ~worker ~seq (Item.read env item)
  | None -> respond_missing env tr ~worker ~seq

(* A put reads its payload from the rx slot (it was DMAed there), updates
   or creates the item, acks, and returns the item now holding the key. *)
let do_put env tr ~lock ~index ~slab ~worker ~seq (msg : Message.t) item_opt =
  let value =
    match msg.Message.value with
    | Some v -> v
    | None -> invalid_arg "Exec.do_put: put without payload"
  in
  (* fetch the payload bytes from the network buffer *)
  let payload_addr = tr.Transport.slot_addr seq + 16 in
  Env.tagged env "Exec.do_put" (fun () ->
      Env.load env ~addr:payload_addr ~size:(Bytes.length value));
  let item =
    match item_opt with
    | Some item ->
      (match lock with
      | Locked -> Item.write env item value slab
      | Exclusive -> Item.write_exclusive env item value slab);
      item
    | None ->
      let item = Item.create slab ~value in
      index.Index.insert env msg.Message.req.Request.key item;
      item
  in
  respond_ack env tr ~worker ~seq;
  item

let do_delete env tr ~index ~worker ~seq key =
  ignore (index.Index.remove env key);
  respond_ack env tr ~worker ~seq

(* A batch looks every key up once, before its first op executes, so a
   DEL or an insert must re-point what the batch's later ops on that key
   find.  Bookkeeping only: no index access, no charge. *)
let relocate keys located ~from key item =
  for j = from to Array.length located - 1 do
    if Int64.equal keys.(j) key then located.(j) <- item
  done

(* Range scan: [prefix] carries entries already copied by the CR layer
   (cooperative scans, §4); [skip] marks keys whose items need not be read
   again.  The response carries every returned item. *)
let do_scan env tr ~index ~worker ~seq ~key ~count ?(skip = fun _ -> false)
    ?(prefix = []) () =
  let wanted = count - List.length prefix in
  let rest = if wanted > 0 then index.Index.range env ~lo:key ~n:count else [] in
  let copied = ref 0 and bytes = ref ack_bytes in
  let add_item (k, item) =
    if !copied < count then begin
      if not (skip k) then begin
        let v = Item.read env item in
        bytes := !bytes + 16 + Bytes.length v
      end
      else bytes := !bytes + 16 + Item.size item;
      incr copied
    end
  in
  List.iter add_item prefix;
  (* avoid double-counting keys present in both prefix and index walk *)
  let prefix_keys = List.map fst prefix in
  List.iter
    (fun (k, item) ->
      if not (List.mem k prefix_keys) then add_item (k, item))
    rest;
  let resp_addr = tr.Transport.resp_alloc ~worker ~bytes:(min !bytes 32_768) in
  Env.tagged env "Exec.do_scan" (fun () ->
      Env.store env ~addr:resp_addr ~size:(min !bytes 32_768));
  tr.Transport.post_response env ~seq ~resp_addr ~bytes:!bytes ~value:None
