module Engine = Mutps_sim.Engine
module Env = Mutps_mem.Env
module Layout = Mutps_mem.Layout
module Hierarchy = Mutps_mem.Hierarchy

type config = { ring_bytes : int; resp_buf_bytes : int; doorbell_cycles : int }

let default_config =
  { ring_bytes = 1024 * 1024; resp_buf_bytes = 64 * 1024; doorbell_cycles = 25 }

type slot = {
  addr : int;
  len : int;
  msg : Message.t;
  mutable responded : bool;
}

type ring = {
  base : int;
  head_addr : int;
  mutable write_seq : int;
  mutable write_off : int;
  mutable cursor : int;
  mutable outstanding_bytes : int;
}

(* slot seqs are globally unique: seq = per_ring_seq * workers + worker *)
type t = {
  config : config;
  engine : Engine.t;
  hier : Hierarchy.t;
  link : Link.t;
  workers : int;
  rings : ring array;
  resp_base : int array;
  resp_cursor : int array;
  slots : slot Message.Tbl.t;
  mutable on_response : (Message.t -> bytes option -> unit) option;
  mutable outstanding : int;
  mutable delivered : int;
}

let create ?(config = default_config) ~engine ~hier ~layout ~link ~workers () =
  if workers <= 0 then invalid_arg "Erpc.create";
  let mk_ring i =
    let region =
      Layout.region layout
        ~name:(Printf.sprintf "erpc-rx-%d" i)
        ~size:(config.ring_bytes + Layout.line_bytes)
    in
    let head_addr = Layout.alloc region ~align:64 8 in
    let base = Layout.alloc region ~align:64 config.ring_bytes in
    { base; head_addr; write_seq = 0; write_off = 0; cursor = 0; outstanding_bytes = 0 }
  in
  let resp_region =
    Layout.region layout ~name:"erpc-resp-bufs"
      ~size:(workers * config.resp_buf_bytes)
  in
  {
    config;
    engine;
    hier;
    link;
    workers;
    rings = Array.init workers mk_ring;
    resp_base =
      Array.init workers (fun _ ->
          Layout.alloc resp_region ~align:64 config.resp_buf_bytes);
    resp_cursor = Array.make workers 0;
    slots = Message.Tbl.create 4096;
    on_response = None;
    outstanding = 0;
    delivered = 0;
  }

let workers t = t.workers
let delivered t = t.delivered
let outstanding t = t.outstanding

let align16 v = (v + 15) land lnot 15

let deliver t (msg : Message.t) =
  let worker = msg.Message.target in
  if worker < 0 || worker >= t.workers then
    invalid_arg "Erpc.deliver: message must target a worker";
  let ring = t.rings.(worker) in
  let len = align16 (Message.request_bytes msg) in
  if ring.outstanding_bytes + len > t.config.ring_bytes / 2 then
    failwith "Erpc: rx ring overflow";
  if ring.write_off + len > t.config.ring_bytes then ring.write_off <- 0;
  let addr = ring.base + ring.write_off in
  ring.write_off <- ring.write_off + len;
  let seq = (ring.write_seq * t.workers) + worker in
  ring.write_seq <- ring.write_seq + 1;
  Hierarchy.dma_write t.hier ~addr ~size:len;
  Hierarchy.dma_write t.hier ~addr:ring.head_addr ~size:8;
  let msg =
    { msg with Message.req = { msg.Message.req with Mutps_queue.Request.buf = seq } }
  in
  Message.Tbl.replace t.slots seq { addr; len; msg; responded = false };
  ring.outstanding_bytes <- ring.outstanding_bytes + len;
  t.outstanding <- t.outstanding + 1;
  t.delivered <- t.delivered + 1

let slot_exn t seq =
  match Message.Tbl.find_opt t.slots seq with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Erpc: unknown slot %d" seq)

let poll t env ~worker =
  if worker < 0 || worker >= t.workers then invalid_arg "Erpc.poll";
  let ring = t.rings.(worker) in
  Env.commit env;
  if ring.cursor >= ring.write_seq then begin
    Env.load env ~addr:ring.head_addr ~size:8;
    None
  end
  else begin
    let seq = (ring.cursor * t.workers) + worker in
    ring.cursor <- ring.cursor + 1;
    let slot = slot_exn t seq in
    Env.load env ~addr:slot.addr ~size:16;
    Some (seq, slot.msg)
  end

let resp_alloc t ~worker ~bytes =
  let bytes = align16 (max bytes 16) in
  if bytes > t.config.resp_buf_bytes then invalid_arg "Erpc.resp_alloc: too big";
  if t.resp_cursor.(worker) + bytes > t.config.resp_buf_bytes then
    t.resp_cursor.(worker) <- 0;
  let addr = t.resp_base.(worker) + t.resp_cursor.(worker) in
  t.resp_cursor.(worker) <- t.resp_cursor.(worker) + bytes;
  addr

let post_response t env ~seq ~resp_addr ~bytes ~value =
  let slot = slot_exn t seq in
  if slot.responded then invalid_arg "Erpc: slot answered twice";
  slot.responded <- true;
  Env.compute env t.config.doorbell_cycles;
  Env.commit env;
  Hierarchy.dma_read t.hier ~addr:resp_addr ~size:bytes;
  let arrival =
    Link.tx_arrival t.link ~now:(Engine.now t.engine) ~bytes:(16 + bytes)
  in
  let worker = seq mod t.workers in
  t.rings.(worker).outstanding_bytes <-
    t.rings.(worker).outstanding_bytes - slot.len;
  t.outstanding <- t.outstanding - 1;
  Message.Tbl.remove t.slots seq;
  let msg = slot.msg in
  match t.on_response with
  | None -> ()
  | Some f -> Engine.schedule t.engine ~at:arrival (fun () -> f msg value)

let transport t =
  {
    Transport.name = "erpc";
    deliver = (fun msg -> deliver t msg);
    poll = (fun env ~worker -> poll t env ~worker);
    slot_addr = (fun seq -> (slot_exn t seq).addr);
    slot_len = (fun seq -> (slot_exn t seq).len);
    resp_alloc = (fun ~worker ~bytes -> resp_alloc t ~worker ~bytes);
    post_response =
      (fun env ~seq ~resp_addr ~bytes ~value ->
        post_response t env ~seq ~resp_addr ~bytes ~value);
    set_on_response = (fun f -> t.on_response <- Some f);
    set_workers =
      (fun _ ->
        invalid_arg
          "Erpc: changing the worker count requires client coordination");
    reconfig_in_progress = (fun () -> false);
  }
