module Engine = Mutps_sim.Engine
module Env = Mutps_mem.Env
module Layout = Mutps_mem.Layout
module Hierarchy = Mutps_mem.Hierarchy

type config = { ring_bytes : int; resp_buf_bytes : int; doorbell_cycles : int }

let default_config =
  { ring_bytes = 4 * 1024 * 1024; resp_buf_bytes = 64 * 1024; doorbell_cycles = 30 }

type slot = {
  addr : int;
  len : int;
  msg : Message.t;
  mutable responded : bool;
}

type t = {
  config : config;
  engine : Engine.t;
  hier : Hierarchy.t;
  link : Link.t;
  max_workers : int;
  ring_base : int;
  head_addr : int;
  resp_base : int array;
  resp_cursor : int array;
  cursors : int array; (* per worker: next candidate slot seq *)
  slots : slot Message.Tbl.t;
  mutable write_seq : int;
  mutable write_off : int;
  (* Worker-count regimes: [(from_seq, n); ...] ascending by from_seq, the
     first element starting at 0 (after pruning, at any consumed point).
     Slot [seq] is owned by [seq mod n] of the regime containing it.  A
     reconfiguration appends a segment at the current write position — the
     "predefined slot" of §3.5 — and old segments are pruned once every
     worker has consumed its slots below the next switch. *)
  mutable regimes : (int * int) list;
  mutable on_response : (Message.t -> bytes option -> unit) option;
  mutable outstanding : int;
  mutable outstanding_bytes : int;
  mutable delivered : int;
  mutable responded : int;
}

let create ?(config = default_config) ~engine ~hier ~layout ~link ~max_workers
    ~workers () =
  if workers <= 0 || workers > max_workers then
    invalid_arg "Reconf_rpc.create: bad worker count";
  let ring_region =
    Layout.region layout ~name:"rpc-rx-ring"
      ~size:(config.ring_bytes + Layout.line_bytes)
  in
  let head_addr = Layout.alloc ring_region ~align:64 8 in
  let ring_base = Layout.alloc ring_region ~align:64 config.ring_bytes in
  let resp_region =
    Layout.region layout ~name:"rpc-resp-bufs"
      ~size:(max_workers * config.resp_buf_bytes)
  in
  let resp_base =
    Array.init max_workers (fun _ ->
        Layout.alloc resp_region ~align:64 config.resp_buf_bytes)
  in
  {
    config;
    engine;
    hier;
    link;
    max_workers;
    ring_base;
    head_addr;
    resp_base;
    resp_cursor = Array.make max_workers 0;
    cursors = Array.make max_workers 0;
    slots = Message.Tbl.create 4096;
    write_seq = 0;
    write_off = 0;
    regimes = [ (0, workers) ];
    on_response = None;
    outstanding = 0;
    outstanding_bytes = 0;
    delivered = 0;
    responded = 0;
  }

let last_regime t =
  match List.rev t.regimes with
  | (from, n) :: _ -> (from, n)
  | [] -> assert false

let workers t = snd (last_regime t)
let reconfig_in_progress t = List.length t.regimes > 1
let delivered t = t.delivered
let responded t = t.responded
let outstanding t = t.outstanding
let ring_base t = t.ring_base
let ring_bytes t = t.config.ring_bytes

(* which worker owns slot [seq] *)
let owner t seq =
  let rec go n = function
    | (from, n') :: rest when from <= seq -> go n' rest
    | _ -> seq mod n
  in
  match t.regimes with
  | (_, n0) :: rest -> go n0 rest
  | [] -> assert false

(* Smallest own slot >= [from] for worker [w]; None when [w] owns nothing
   at or after [from] under any current or future regime. *)
let next_owned t w from =
  let next_mod n from = from + (((w - from) mod n) + n) mod n in
  let rec go = function
    | [] -> None
    | [ (a, n) ] -> if w < n then Some (next_mod n (max from a)) else None
    | (a, n) :: ((b, _) :: _ as rest) ->
      if from >= b || w >= n then go rest
      else begin
        let c = next_mod n (max from a) in
        if c < b then Some c else go rest
      end
  in
  go t.regimes

(* Prune regime segments whose slots every owning worker has consumed. *)
let rec maybe_prune t =
  match t.regimes with
  | (_, n_first) :: ((second_from, _) :: _ as rest) ->
    let all_crossed = ref true in
    for w = 0 to n_first - 1 do
      if t.cursors.(w) < second_from then all_crossed := false
    done;
    if !all_crossed then begin
      t.regimes <- rest;
      maybe_prune t
    end
  | _ -> ()

let set_workers t n =
  if n <= 0 || n > t.max_workers then invalid_arg "Reconf_rpc.set_workers";
  if n <> workers t then begin
    let from, _ = last_regime t in
    if from = t.write_seq then
      (* no slot delivered under the pending regime yet: replace it *)
      t.regimes <-
        (match List.rev t.regimes with
        | _ :: older -> List.rev ((t.write_seq, n) :: older)
        | [] -> assert false)
    else t.regimes <- t.regimes @ [ (t.write_seq, n) ];
    maybe_prune t
  end

let align16 v = (v + 15) land lnot 15

let deliver t (msg : Message.t) =
  let len = align16 (Message.request_bytes msg) in
  if t.outstanding_bytes + len > t.config.ring_bytes / 2 then
    failwith "Reconf_rpc: rx ring overflow (too many outstanding requests)";
  (* wrap the byte cursor; slots never straddle the wrap point *)
  if t.write_off + len > t.config.ring_bytes then t.write_off <- 0;
  let addr = t.ring_base + t.write_off in
  t.write_off <- t.write_off + len;
  let seq = t.write_seq in
  t.write_seq <- seq + 1;
  (* DMA the message body, then the completion/head line *)
  Hierarchy.dma_write t.hier ~addr ~size:len;
  Hierarchy.dma_write t.hier ~addr:t.head_addr ~size:8;
  let msg = { msg with Message.req = { msg.Message.req with Mutps_queue.Request.buf = seq } } in
  Message.Tbl.replace t.slots seq { addr; len; msg; responded = false };
  t.outstanding <- t.outstanding + 1;
  t.outstanding_bytes <- t.outstanding_bytes + len;
  t.delivered <- t.delivered + 1

let slot_exn t seq =
  match Message.Tbl.find_opt t.slots seq with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Reconf_rpc: unknown slot %d" seq)

let slot_addr t seq = (slot_exn t seq).addr
let slot_len t seq = (slot_exn t seq).len

let poll t env ~worker =
  if worker < 0 || worker >= t.max_workers then invalid_arg "Reconf_rpc.poll";
  Env.commit env;
  match next_owned t worker t.cursors.(worker) with
  | None ->
    (* checking for work on the completion line is the only touch *)
    Env.load env ~addr:t.head_addr ~size:8;
    (* departed worker: move its cursor to the latest switch point so
       pruning and the reconfiguration protocol can observe it crossed *)
    let last_from, _ = last_regime t in
    if t.cursors.(worker) < last_from then begin
      t.cursors.(worker) <- last_from;
      maybe_prune t
    end;
    None
  | Some candidate when candidate >= t.write_seq ->
    Env.load env ~addr:t.head_addr ~size:8;
    None
  | Some candidate ->
    assert (owner t candidate = worker);
    t.cursors.(worker) <- candidate + 1;
    maybe_prune t;
    let slot = slot_exn t candidate in
    (* MP-RQ style: the request header line doubles as the valid flag, so
       a successful poll is a single memory touch *)
    Env.load env ~addr:slot.addr ~size:16;
    Some (candidate, slot.msg)

let resp_alloc t ~worker ~bytes =
  let bytes = align16 (max bytes 16) in
  if bytes > t.config.resp_buf_bytes then invalid_arg "Reconf_rpc.resp_alloc: too big";
  if t.resp_cursor.(worker) + bytes > t.config.resp_buf_bytes then
    t.resp_cursor.(worker) <- 0;
  let addr = t.resp_base.(worker) + t.resp_cursor.(worker) in
  t.resp_cursor.(worker) <- t.resp_cursor.(worker) + bytes;
  addr

let post_response t env ~seq ~resp_addr ~bytes ~value =
  let slot = slot_exn t seq in
  if slot.responded then
    invalid_arg (Printf.sprintf "Reconf_rpc: slot %d answered twice" seq);
  slot.responded <- true;
  Env.compute env t.config.doorbell_cycles;
  Env.commit env;
  (* the NIC reads the response buffer (no CPU cost, no allocation) *)
  Hierarchy.dma_read t.hier ~addr:resp_addr ~size:bytes;
  let wire_bytes = 16 + bytes in
  let arrival = Link.tx_arrival t.link ~now:(Engine.now t.engine) ~bytes:wire_bytes in
  t.outstanding <- t.outstanding - 1;
  t.outstanding_bytes <- t.outstanding_bytes - slot.len;
  t.responded <- t.responded + 1;
  Message.Tbl.remove t.slots seq;
  let msg = slot.msg in
  match t.on_response with
  | None -> ()
  | Some f -> Engine.schedule t.engine ~at:arrival (fun () -> f msg value)

let transport t =
  {
    Transport.name = "reconf-rpc";
    deliver = (fun msg -> deliver t msg);
    poll = (fun env ~worker -> poll t env ~worker);
    slot_addr = (fun seq -> slot_addr t seq);
    slot_len = (fun seq -> slot_len t seq);
    resp_alloc = (fun ~worker ~bytes -> resp_alloc t ~worker ~bytes);
    post_response =
      (fun env ~seq ~resp_addr ~bytes ~value ->
        post_response t env ~seq ~resp_addr ~bytes ~value);
    set_on_response = (fun f -> t.on_response <- Some f);
    set_workers = (fun n -> set_workers t n);
    reconfig_in_progress = (fun () -> reconfig_in_progress t);
  }
