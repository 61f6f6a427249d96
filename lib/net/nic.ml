module Engine = Mutps_sim.Engine
module Env = Mutps_mem.Env
module Layout = Mutps_mem.Layout
module Hierarchy = Mutps_mem.Hierarchy

type config = { ring_bytes : int; resp_buf_bytes : int; doorbell_cycles : int }

type ring = {
  base : int;
  head_addr : int;
  mutable written : int;
  mutable write_off : int;
  mutable outstanding_bytes : int;
}

(* a slot records its ring, so an answer frees the right ring's bytes *)
type slot = { addr : int; len : int; msg : Message.t; ring : ring }

type t = {
  name : string;
  config : config;
  engine : Engine.t;
  hier : Hierarchy.t;
  link : Link.t;
  resp_base : int array;
  resp_cursor : int array;
  slots : slot Message.Tbl.t;
  mutable on_response : (Message.t -> bytes option -> unit) option;
  mutable responded : int;
}

let create ~name ~config ~engine ~hier ~layout ~link ~resp_name ~workers =
  let resp_region =
    Layout.region layout ~name:resp_name ~size:(workers * config.resp_buf_bytes)
  in
  {
    name;
    config;
    engine;
    hier;
    link;
    resp_base =
      Array.init workers (fun _ ->
          Layout.alloc resp_region ~align:64 config.resp_buf_bytes);
    resp_cursor = Array.make workers 0;
    slots = Message.Tbl.create 4096;
    on_response = None;
    responded = 0;
  }

let ring layout ~name config =
  let region =
    Layout.region layout ~name ~size:(config.ring_bytes + Layout.line_bytes)
  in
  let head_addr = Layout.alloc region ~align:64 8 in
  let base = Layout.alloc region ~align:64 config.ring_bytes in
  { base; head_addr; written = 0; write_off = 0; outstanding_bytes = 0 }

let written ring = ring.written
let outstanding t = Message.Tbl.length t.slots
let responded t = t.responded

let align16 v = (v + 15) land lnot 15

let deliver t ring ~seq (msg : Message.t) =
  let len = align16 (Message.request_bytes msg) in
  if ring.outstanding_bytes + len > t.config.ring_bytes / 2 then
    failwith (t.name ^ ": rx ring overflow (too many outstanding requests)");
  (* wrap the byte cursor; slots never straddle the wrap point *)
  if ring.write_off + len > t.config.ring_bytes then ring.write_off <- 0;
  let addr = ring.base + ring.write_off in
  ring.write_off <- ring.write_off + len;
  ring.written <- ring.written + 1;
  (* DMA the message body, then the completion/head line *)
  Hierarchy.dma_write t.hier ~addr ~size:len;
  Hierarchy.dma_write t.hier ~addr:ring.head_addr ~size:8;
  let msg =
    { msg with Message.req = { msg.Message.req with Mutps_queue.Request.buf = seq } }
  in
  Message.Tbl.replace t.slots seq { addr; len; msg; ring };
  ring.outstanding_bytes <- ring.outstanding_bytes + len

let slot_exn t seq =
  match Message.Tbl.find_opt t.slots seq with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "%s: unknown slot %d" t.name seq)

let slot_addr t seq = (slot_exn t seq).addr

(* checking for work on the completion line is the only touch *)
let empty_poll env ring = Env.load env ~addr:ring.head_addr ~size:8

let claim t env seq =
  let slot = slot_exn t seq in
  (* MP-RQ style: the request header line doubles as the valid flag, so
     a successful poll is a single memory touch *)
  Env.load env ~addr:slot.addr ~size:16;
  Some (seq, slot.msg)

let resp_alloc t ~worker ~bytes =
  let bytes = align16 (max bytes 16) in
  if bytes > t.config.resp_buf_bytes then
    invalid_arg (t.name ^ ".resp_alloc: too big");
  if t.resp_cursor.(worker) + bytes > t.config.resp_buf_bytes then
    t.resp_cursor.(worker) <- 0;
  let addr = t.resp_base.(worker) + t.resp_cursor.(worker) in
  t.resp_cursor.(worker) <- t.resp_cursor.(worker) + bytes;
  addr

let post_response t env ~seq ~resp_addr ~bytes ~value =
  let slot = slot_exn t seq in
  Env.compute env t.config.doorbell_cycles;
  Env.commit env;
  (* the NIC reads the response buffer (no CPU cost, no allocation) *)
  Hierarchy.dma_read t.hier ~addr:resp_addr ~size:bytes;
  let arrival =
    Link.tx_arrival t.link ~now:(Engine.now t.engine) ~bytes:(16 + bytes)
  in
  slot.ring.outstanding_bytes <- slot.ring.outstanding_bytes - slot.len;
  t.responded <- t.responded + 1;
  Message.Tbl.remove t.slots seq;
  let msg = slot.msg in
  match t.on_response with
  | None -> ()
  | Some f -> Engine.schedule t.engine ~at:arrival (fun () -> f msg value)

let transport t ~deliver ~poll ~set_workers ~reconfig_in_progress =
  {
    Transport.deliver;
    poll;
    slot_addr = slot_addr t;
    resp_alloc = resp_alloc t;
    post_response = post_response t;
    set_on_response = (fun f -> t.on_response <- Some f);
    set_workers;
    reconfig_in_progress;
  }
