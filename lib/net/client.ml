module Engine = Mutps_sim.Engine
module Stats = Mutps_sim.Stats
module Rng = Mutps_sim.Rng
module Opgen = Mutps_workload.Opgen
module Request = Mutps_queue.Request

type config = {
  clients : int;
  window : int;
  spec : Opgen.spec;
  seed : int;
  dispatch : Opgen.op -> int;
}

let uniform_dispatch _ = -1

let mod_key_dispatch ~workers op =
  Int64.to_int (Int64.rem op.Opgen.key (Int64.of_int workers))

type t = {
  engine : Engine.t;
  link : Link.t;
  transport : Transport.t;
  mutable cfg : config;
  gens : Opgen.t array;
  mutable next_id : int;
  in_flight : Opgen.op Message.Tbl.t; (* message id -> op *)
  latency : Stats.Hist.t;
  monitor : Stats.Monitor.t;
  mutable completed : int;
  mutable sent : int;
  mutable recording : bool;
  mutable stopped : bool;
  mutable hook : (Opgen.op -> bytes option -> unit) option;
}

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Byte [i] is the low byte of hash round [i / 8 + 1], so each 8-byte run
   holds one byte value: a whole run is written at once, as that byte
   times 0x0101010101010101, and only a tail shorter than 8 bytewise. *)
let payload ~key ~size =
  let b = Bytes.create size in
  let h = ref (Rng.hash64 key) in
  let i = ref 0 in
  while !i < size do
    h := Rng.hash64 !h;
    let byte = Int64.to_int !h land 0xFF in
    if size - !i >= 8 then
      set64u b !i (Int64.mul (Int64.of_int byte) 0x0101010101010101L)
    else Bytes.fill b !i (size - !i) (Char.unsafe_chr byte);
    i := !i + 8
  done;
  b

let op_to_request (op : Opgen.op) =
  match op.Opgen.kind with
  | Request.Get -> Request.get ~key:op.Opgen.key ~buf:0
  | Request.Put -> Request.put ~key:op.Opgen.key ~size:op.Opgen.size ~buf:0
  | Request.Delete -> Request.delete ~key:op.Opgen.key ~buf:0
  | Request.Scan ->
    Request.scan ~key:op.Opgen.key
      ~count:(min op.Opgen.scan_count Request.max_scan_count)
      ~buf:0

let issue t client =
  let op = Opgen.next t.gens.(client) in
  let id = t.next_id in
  t.next_id <- id + 1;
  let value =
    match op.Opgen.kind with
    | Request.Put -> Some (payload ~key:op.Opgen.key ~size:op.Opgen.size)
    | Request.Get | Request.Delete | Request.Scan -> None
  in
  let msg =
    {
      Message.id;
      client;
      sent_at = Engine.now t.engine;
      target = t.cfg.dispatch op;
      req = op_to_request op;
      value;
    }
  in
  Message.Tbl.replace t.in_flight id op;
  t.sent <- t.sent + 1;
  let arrival =
    Link.rx_arrival t.link ~sent_at:msg.Message.sent_at
      ~bytes:(Message.request_bytes msg)
  in
  Engine.schedule t.engine ~at:arrival (fun () -> t.transport.Transport.deliver msg)

let on_response t (msg : Message.t) value =
  let now = Engine.now t.engine in
  if t.recording then begin
    Stats.Hist.add t.latency (now - msg.Message.sent_at);
    Stats.Monitor.record t.monitor ~now 1
  end;
  t.completed <- t.completed + 1;
  (match Message.Tbl.find_opt t.in_flight msg.Message.id with
  | Some op ->
    Message.Tbl.remove t.in_flight msg.Message.id;
    (match t.hook with Some f -> f op value | None -> ())
  | None -> ());
  (* closed loop: next request from the same client *)
  if not t.stopped then issue t msg.Message.client

let start ~engine ~link ~transport cfg =
  if cfg.clients <= 0 || cfg.window <= 0 then invalid_arg "Client.start";
  let t =
    {
      engine;
      link;
      transport;
      cfg;
      gens =
        Array.init cfg.clients (fun i ->
            Opgen.make cfg.spec ~seed:(cfg.seed + (i * 7919)));
      next_id = 0;
      in_flight = Message.Tbl.create 1024;
      latency = Stats.Hist.create ();
      (* 1 ms at the default 2.5 GHz clock *)
      monitor = Stats.Monitor.create ~window:2_500_000;
      completed = 0;
      sent = 0;
      recording = true;
      stopped = false;
      hook = None;
    }
  in
  transport.Transport.set_on_response (fun msg value -> on_response t msg value);
  (* stagger initial sends a little so the first burst is not a single
     simultaneous wall *)
  for c = 0 to cfg.clients - 1 do
    for w = 0 to cfg.window - 1 do
      Engine.schedule engine
        ~at:(Engine.now engine + (((c * cfg.window) + w) * 11))
        (fun () -> issue t c)
    done
  done;
  t

let config t = t.cfg

let set_spec t spec =
  t.cfg <- { t.cfg with spec };
  Array.iteri
    (fun i _ -> t.gens.(i) <- Opgen.make spec ~seed:(t.cfg.seed + 1_000_003 + (i * 7919)))
    t.gens

let completed t = t.completed
let sent t = t.sent
let latency t = t.latency
let monitor t = t.monitor

let reset_stats t =
  Stats.Hist.clear t.latency;
  t.completed <- 0;
  t.sent <- 0

let set_recording t on = t.recording <- on
let stop t = t.stopped <- true
let outstanding t = Message.Tbl.length t.in_flight
let on_completion t f = t.hook <- Some f
