(* Native socket server: the real-machine twin of the simulated KVS.

   One listener (TCP or Unix-domain) feeds share-nothing shards (key mod
   nshards); every shard is one {!Sched} fiber that calls the simulator's
   own loop bodies — [Rtc.stepper] for the run-to-completion systems, and
   for the μTPS split a 2-core [Mutps]'s CR and MR steppers plus
   [Mutps.refresh_hotset] every 200 ms — over free-running memory
   environments ([Env.make_freerun]: charging is a no-op and no DES
   effect is ever performed).  The steps run one at a time, as under the
   simulator, and a forwarded op is answered in the scheduler turn that
   delivered it.

   Wire protocol: {!Resp} (GET/SET/DEL/PING).  Per-connection response
   order equals request order: every parsed command queues a reply slot
   on its connection, a reply fills its request's slot whichever shard
   fiber posted it, and only a connection's filled prefix is encoded.

   Threading picture (D rules): the poller fiber owns every connection —
   its socket, read side, reply slots and reply buffer — and the request
   id table; a shard fiber owns its KVS.  The only
   cross-fiber state is each shard's request queue and reply queue, both
   under the shard's one lock ([rx_lock]), never nested. *)

module Env = Mutps_mem.Env
module Costs = Mutps_mem.Costs
module Simthread = Mutps_sim.Simthread
module Request = Mutps_queue.Request
module Message = Mutps_net.Message
module Transport = Mutps_net.Transport
module Backend = Mutps_kvs.Backend
module Config = Mutps_kvs.Config
module Exec = Mutps_kvs.Exec
module Rtc = Mutps_kvs.Rtc
module Mutps = Mutps_kvs.Mutps

type mode = Rtc_pool of Exec.lock_mode | Split

type listen = Unix_path of string | Tcp of string * int

type config = {
  mode : mode;
  listen : listen;
  domains : int;  (** scheduler worker domains *)
  shards : int;  (** share-nothing backend shards (key mod shards) *)
  keyspace : int;  (** keys preloaded before serving (0 = start empty) *)
  value_size : int;  (** preloaded value bytes *)
  hot_cap : int;  (** CR hot-cache capacity per shard (Split mode) *)
  duration_s : float option;  (** stop after this long; [None] = until {!handle} stop *)
  log : string -> unit;
      (** lifecycle lines; called only from the domain invoking
          {!run}/{!launch}, so a DLS-bound sink (e.g. the experiment
          harness's) sees every message *)
}

let default_config =
  {
    mode = Split;
    listen = Unix_path "/tmp/mutps.sock";
    domains = 2;
    shards = 1;
    keyspace = 0;
    value_size = 64;
    hot_cap = 1024;
    duration_s = None;
    log = ignore;
  }

type summary = {
  responded : int;  (** replies posted by the KVS layers *)
  cr_hits : int;  (** answered at the CR layer (Split mode) *)
  forwarded : int;  (** forwarded CR->MR (Split mode) *)
  mr_ops : int;
  steals : int;  (** scheduler cross-worker steals *)
  conns : int;  (** connections accepted *)
}

(* ------------------------------------------------------------------ *)
(* Native transport: the same first-class interface the simulated     *)
(* transports implement, over in-process handoff queues.  A message's *)
(* seq is the request id the poller gave it, and a reply goes back to *)
(* the poller as [(seq, value)].  Every address is 0: a free-running  *)
(* Env never charges one.                                             *)
(* ------------------------------------------------------------------ *)

type native_tr = {
  rx_lock : Mutex.t;  (* guards rx and replies *)
  rx : (int * Message.t) Queue.t;
  replies : (int * bytes option) Queue.t;
  inflight : int Atomic.t;
  responded : int Atomic.t;
}

let make_transport () =
  let nt =
    {
      rx_lock = Mutex.create ();
      rx = Queue.create ();
      replies = Queue.create ();
      inflight = Atomic.make 0;
      responded = Atomic.make 0;
    }
  in
  let tr =
    {
      Transport.deliver =
        (fun msg ->
          Mutex.lock nt.rx_lock;
          Queue.push (msg.Message.id, msg) nt.rx;
          Mutex.unlock nt.rx_lock;
          Atomic.incr nt.inflight);
      poll =
        (fun _env ~worker:_ ->
          Mutex.lock nt.rx_lock;
          let m = Queue.take_opt nt.rx in
          Mutex.unlock nt.rx_lock;
          m);
      slot_addr = (fun _ -> 0);
      resp_alloc = (fun ~worker:_ ~bytes:_ -> 0);
      post_response =
        (fun _env ~seq ~resp_addr:_ ~bytes:_ ~value ->
          Mutex.lock nt.rx_lock;
          Queue.push (seq, value) nt.replies;
          Mutex.unlock nt.rx_lock;
          Atomic.decr nt.inflight;
          Atomic.incr nt.responded);
      set_on_response = (fun _ -> ());
      set_workers = (fun _ -> ());
      reconfig_in_progress = (fun () -> false);
    }
  in
  (nt, tr)

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

type kvs = Rtc_shard of Exec.lock_mode | Split_shard of Mutps.t

type shard = {
  backend : Backend.t;
  nt : native_tr;
  tr : Transport.t;
  kvs : kvs;
  stop : bool Atomic.t;  (* the server-wide stop flag, shared *)
}

let shard_of_key ~shards key =
  Int64.to_int (Int64.rem (Int64.logand key Int64.max_int) (Int64.of_int shards))

(* A Split shard is a 2-core [Mutps]: worker 0 is its CR layer, worker 1
   its MR layer.  A forward leaves the CR layer in its own step ([batch =
   1]): natively batching amortizes nothing, and a partial batch would
   wait on the frozen clock of a free-running Env.  The hot set is rebuilt
   every 500M model cycles (200 ms) from every 4th key, which keeps the
   skewed hit rate above the old write-through cache's (DESIGN.md §11). *)
let make_shard cfg ~stop sid =
  let kcfg =
    Config.default ~cores:2
      ~capacity:(max 64 ((cfg.keyspace / max 1 cfg.shards) + 64))
      ()
  in
  let nt, tr = make_transport () in
  let kvs =
    match cfg.mode with
    | Rtc_pool lock -> Rtc_shard lock
    | Split ->
      Split_shard
        (Mutps.create ~transport:tr
           { kcfg with batch = 1; hot_k = cfg.hot_cap; sample_every = 4;
                       refresh_cycles = 500_000_000 })
  in
  let backend =
    match kvs with
    | Rtc_shard _ -> Backend.create kcfg
    | Split_shard kv -> Mutps.backend kv
  in
  if cfg.keyspace > 0 then
    Backend.populate backend
      ~owned:(fun key -> shard_of_key ~shards:cfg.shards key = sid)
      ~keyspace:cfg.keyspace ~value_size:cfg.value_size;
  { backend; nt; tr; kvs; stop }

(* A shard fiber's turn rebuilds a Split shard's hot set once its
   deadline has passed, then runs rounds — the CR step then the MR step,
   or the one Rtc step — while the shard has work in flight, and only
   then checks stop and yields to the scheduler.  A round advances every
   op in flight (the CR polls or reaps, the MR executes), so the drain
   ends and a forward is answered in the turn that polled it. *)
let shard_fiber shard () =
  let backend = shard.backend in
  let ctx = Simthread.detached ~name:"native-shard" backend.Backend.engine in
  let env core = Env.make_freerun ~ctx ~hier:backend.Backend.hier ~core in
  let round, rebuild =
    match shard.kvs with
    | Rtc_shard lock ->
      let step =
        Rtc.stepper backend shard.tr ~lock ~worker:0 (Rtc.make_stats ()) (env 0)
      in
      ((fun () -> ignore (step ())), ignore)
    | Split_shard kv ->
      let cr = Mutps.stepper kv 0 (env 0) and mr = Mutps.stepper kv 1 (env 1) in
      let cfg = backend.Backend.config in
      let manager = env (Config.manager_core cfg) in
      let period =
        int_of_float
          (Costs.ns_of_cycles cfg.Config.costs cfg.Config.refresh_cycles)
      in
      let deadline = ref (Clock.now_ns () + period) in
      ( (fun () ->
          ignore (cr ());
          ignore (mr ())),
        fun () ->
          let now = Clock.now_ns () in
          if now >= !deadline then begin
            Mutps.refresh_hotset kv manager;
            deadline := now + period
          end )
  in
  while true do
    rebuild ();
    while Atomic.get shard.nt.inflight > 0 do
      round ()
    done;
    if Atomic.get shard.stop then raise Fiber.Stop;
    Fiber.yield ()
  done

(* ------------------------------------------------------------------ *)
(* Connections and the socket poller                                   *)
(* ------------------------------------------------------------------ *)

(* A reply slot, queued on its connection when the command is parsed and
   filled when its reply is known. *)
type slot = { mutable reply : Resp.reply option }

type conn = {
  cid : int;
  fd : Unix.file_descr;
  mutable rbuf : bytes;  (* read accumulation *)
  mutable rlen : int;
  slots : slot Queue.t;  (* one per command not yet encoded, in request order *)
  obuf : Buffer.t;  (* in-order encoded replies awaiting the socket *)
  mutable wbuf : bytes;  (* replies being written: [woff, wlen) still owed *)
  mutable wlen : int;
  mutable woff : int;
  mutable closing : bool;  (* close once every reply has been flushed *)
}

(* A client that pipelines requests and never reads the replies would
   grow [obuf] without bound.  Past this many bytes, Valkey's
   [client-output-buffer-limit] hard limit, the poller drops the
   connection as it encodes. *)
let obuf_limit = 16 * Request.max_size

(* The poller's alone, but for the shards' queues. *)
type state = {
  cfg : config;
  shards : shard array;
  taken : int array;  (* each shard's [responded] when its replies were last taken *)
  sched : Sched.t;
  stop : bool Atomic.t;
  lfd : Unix.file_descr;
  mutable next_id : int;  (* the next request id, a transport seq *)
  waiting : (conn * slot * Request.kind) Message.Tbl.t;
      (* request id -> the slot its reply fills *)
  replies : (int * bytes option) Queue.t;  (* taken from the shards *)
  mutable accepted : int;
  mutable live : conn list;  (* every open connection *)
  mutable watched : conn array;  (* the non-closing conns *)
  mutable fds : Unix.file_descr array;  (* the listener, then [watched]'s *)
  mutable ready : int array;  (* [Nbio.poll]'s answer for [fds] *)
  mutable rewatch : bool;  (* [watched] is stale: a conn opened or began closing *)
  mutable closing_conns : int;  (* live conns with [closing] set *)
}

(* Stop reading [conn]: it leaves the watched set at the next poll and
   closes once its replies have drained. *)
let begin_close st conn =
  if not conn.closing then begin
    conn.closing <- true;
    st.closing_conns <- st.closing_conns + 1;
    st.rewatch <- true
  end

(* The peer is gone: nothing more can reach it, so drop the replies still
   owed and let the close sweep take the connection at once.  A reply
   arriving later fills a slot no longer queued and is never encoded. *)
let conn_drop st conn =
  begin_close st conn;
  conn.wlen <- 0;
  conn.woff <- 0;
  Queue.clear conn.slots;
  Buffer.clear conn.obuf

(* Encode [conn]'s filled prefix of slots, or drop a reader that let more
   than [obuf_limit] bytes of them pile up. *)
let rec encode_filled st conn =
  match Queue.peek_opt conn.slots with
  | Some { reply = Some r } ->
    ignore (Queue.take conn.slots);
    Resp.encode_reply conn.obuf r;
    if Buffer.length conn.obuf > obuf_limit then conn_drop st conn
    else encode_filled st conn
  | Some { reply = None } | None -> ()

(* Take every shard's replies; each fills the slot its request queued.  A
   shard counts a reply after queueing it, so a shard whose count has not
   moved since its replies were last taken is not locked. *)
let collect_replies st =
  for i = 0 to Array.length st.shards - 1 do
    let nt = st.shards.(i).nt in
    let responded = Atomic.get nt.responded in
    if responded <> st.taken.(i) then begin
      st.taken.(i) <- responded;
      Mutex.lock nt.rx_lock;
      Queue.transfer nt.replies st.replies;
      Mutex.unlock nt.rx_lock
    end
  done;
  while not (Queue.is_empty st.replies) do
    let id, value = Queue.take st.replies in
    match Message.Tbl.find_opt st.waiting id with
    | None -> invalid_arg "native server: reply to an unknown request id"
    | Some (conn, slot, kind) ->
      Message.Tbl.remove st.waiting id;
      slot.reply <- Some (Resp.reply_for_op kind value);
      encode_filled st conn
  done

(* Answer on [conn], in request order, what no shard answers. *)
let answer st conn reply =
  Queue.push { reply = Some reply } conn.slots;
  encode_filled st conn

(* Dispatch one parsed command: send a KVS op to its shard's transport
   under a fresh request id, whose reply fills the slot queued here;
   answer PING inline. *)
let dispatch st conn cmd =
  let send req value =
    let id = st.next_id in
    st.next_id <- id + 1;
    let slot = { reply = None } in
    Queue.push slot conn.slots;
    Message.Tbl.replace st.waiting id (conn, slot, req.Request.kind);
    let shard =
      st.shards.(shard_of_key ~shards:(Array.length st.shards)
                   req.Request.key)
    in
    shard.tr.Transport.deliver
      {
        Message.id;
        client = conn.cid;
        sent_at = 0;
        target = -1;
        req;
        value;
      }
  in
  match cmd with
  | Resp.Ping -> answer st conn (Resp.Ok_simple "PONG")
  | Resp.Get key -> send (Request.get ~key ~buf:0) None
  | Resp.Del key -> send (Request.delete ~key ~buf:0) None
  | Resp.Set (key, v) ->
    send (Request.put ~key ~size:(Bytes.length v) ~buf:0) (Some v)

let conn_parse st conn =
  let continue = ref true in
  while !continue && not conn.closing do
    match Resp.parse_command conn.rbuf ~len:conn.rlen with
    | `Need_more -> continue := false
    | `Bad reason ->
      answer st conn (Resp.Error reason);
      begin_close st conn
    | `Ok (cmd, consumed) ->
      Bytes.blit conn.rbuf consumed conn.rbuf 0 (conn.rlen - consumed);
      conn.rlen <- conn.rlen - consumed;
      dispatch st conn cmd
  done

let read_chunk = 4096

let conn_read st conn =
  if Bytes.length conn.rbuf - conn.rlen < read_chunk then begin
    let bigger = Bytes.create (2 * Bytes.length conn.rbuf + read_chunk) in
    Bytes.blit conn.rbuf 0 bigger 0 conn.rlen;
    conn.rbuf <- bigger
  end;
  (* a read error of any kind, the peer gone or another, costs only this
     connection *)
  let n = Nbio.read conn.fd conn.rbuf conn.rlen read_chunk in
  if n > 0 then begin
    conn.rlen <- conn.rlen + n;
    conn_parse st conn
  end
  else if n = 0 then begin_close st conn  (* peer shutdown; flush replies then close *)
  else if n <> Nbio.would_block then conn_drop st conn

(* Move encoded replies to the socket, through [wbuf], which is reused. *)
let conn_flush st conn =
  let pending = Buffer.length conn.obuf in
  if conn.woff >= conn.wlen && pending > 0 then begin
    if Bytes.length conn.wbuf < pending then
      conn.wbuf <- Bytes.create (max pending (2 * Bytes.length conn.wbuf));
    Buffer.blit conn.obuf 0 conn.wbuf 0 pending;
    conn.wlen <- pending;
    conn.woff <- 0;
    Buffer.clear conn.obuf
  end;
  if conn.woff < conn.wlen then begin
    let n = Nbio.write conn.fd conn.wbuf conn.woff (conn.wlen - conn.woff) in
    if n >= 0 then conn.woff <- conn.woff + n
    else if n <> Nbio.would_block then conn_drop st conn
  end

(* A closing connection drains once every queued slot has its reply
   encoded and written. *)
let conn_drained conn =
  Queue.is_empty conn.slots && Buffer.length conn.obuf = 0
  && conn.woff >= conn.wlen

let close_conn conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* Network errors pending on a connection that failed before it was
   accepted end that accept alone, and accept(2) says to retry as after
   EAGAIN.  [Unix] has no constructor for two of them, EPROTO and ENONET,
   and for no other error accept can return on a listening stream socket. *)
let accept_conns st =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true st.lfd with
    | fd, _ ->
      Unix.set_nonblock fd;
      let conn =
        {
          cid = st.accepted;
          fd;
          rbuf = Bytes.create read_chunk;
          rlen = 0;
          slots = Queue.create ();
          obuf = Buffer.create 256;
          wbuf = Bytes.create 256;
          wlen = 0;
          woff = 0;
          closing = false;
        }
      in
      st.accepted <- st.accepted + 1;
      st.live <- conn :: st.live;
      st.rewatch <- true
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.EMFILE
           | Unix.ENFILE), _, _)
      -> continue := false
    | exception
        Unix.Unix_error
          ( ( Unix.ECONNABORTED | Unix.ENETDOWN | Unix.ENOPROTOOPT
            | Unix.EHOSTDOWN | Unix.EHOSTUNREACH | Unix.EOPNOTSUPP
            | Unix.ENETUNREACH | Unix.EUNKNOWNERR _ ),
            _,
            _ ) ->
      ()
  done

let close_sweep st =
  match List.partition (fun c -> c.closing && conn_drained c) st.live with
  | [], _ -> ()
  | closed, kept ->
    List.iter close_conn closed;
    st.live <- kept;
    st.closing_conns <- st.closing_conns - List.length closed

let rewatch st =
  st.watched <- Array.of_list (List.filter (fun c -> not c.closing) st.live);
  st.fds <- Array.append [| st.lfd |] (Array.map (fun c -> c.fd) st.watched);
  st.ready <- Array.make (Array.length st.fds) 0;
  st.rewatch <- false

(* One poller turn, driven by readiness: the replies the shard fibers
   posted since the last turn are collected, encoded and leave first, then
   one poll names the sockets worth an accept or a read, by their index
   in [fds], and nothing else is touched.  The poll does not wait while a
   connection is open.  With none, it waits up to 1 ms for the listener:
   the server has nothing else to do, and a domain spinning on a CPU it
   shares delays the process's other threads (its start-up, on one pinned
   CPU, by about 20 ms). *)
let poll_turn st =
  collect_replies st;
  List.iter (conn_flush st) st.live;
  if st.rewatch then rewatch st;
  let n = Array.length st.fds in
  let timeout_ms = match st.live with [] -> 1 | _ :: _ -> 0 in
  if Nbio.poll st.fds n st.ready ~timeout_ms > 0 then begin
    if st.ready.(0) <> 0 then accept_conns st;
    for i = 1 to n - 1 do
      if st.ready.(i) <> 0 then conn_read st st.watched.(i - 1)
    done
  end;
  if st.closing_conns > 0 then close_sweep st

(* The poller fiber: owns the listener and every connection's socket I/O.
   It never blocks while a connection is open (the poll does not wait,
   accept/read/write are non-blocking)
   and yields after every turn, like the shard fibers — the whole server
   is a busy-poll runtime. *)
let poller_fiber st () =
  let deadline_ns =
    Option.map
      (fun s -> Clock.now_ns () + int_of_float (s *. 1e9))
      st.cfg.duration_s
  in
  let finished = ref false in
  while not !finished do
    (match deadline_ns with
    | Some d when Clock.now_ns () >= d -> Atomic.set st.stop true
    | Some _ | None -> ());
    if Atomic.get st.stop then begin
      List.iter close_conn st.live;
      st.live <- [];
      (try Unix.close st.lfd with Unix.Unix_error _ -> ());
      (match st.cfg.listen with
      | Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
      | Tcp _ -> ());
      finished := true
    end
    else begin
      poll_turn st;
      Fiber.yield ()
    end
  done;
  raise Fiber.Stop

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let listen_socket cfg =
  let addr =
    match cfg.listen with
    | Unix_path path ->
      (try Sys.remove path with Sys_error _ -> ());
      Unix.ADDR_UNIX path
    | Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  in
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let listen_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let prepare (cfg : config) =
  if cfg.shards < 1 then invalid_arg "Server: shards < 1";
  if cfg.domains < 1 then invalid_arg "Server: domains < 1";
  (* a client that vanishes with replies in flight must surface as EPIPE
     on its own connection, not kill the process with SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let stop = Atomic.make false in
  let shards = Array.init cfg.shards (make_shard cfg ~stop) in
  let lfd = listen_socket cfg in
  let st =
    {
      cfg;
      shards;
      taken = Array.make cfg.shards 0;
      sched = Sched.create ~workers:cfg.domains ();
      stop;
      lfd;
      next_id = 0;
      waiting = Message.Tbl.create 256;
      replies = Queue.create ();
      accepted = 0;
      live = [];
      watched = [||];
      fds = [| lfd |];
      ready = [| 0 |];
      rewatch = false;
      closing_conns = 0;
    }
  in
  Array.iter (fun shard -> Sched.spawn st.sched (shard_fiber shard)) shards;
  Sched.spawn st.sched (poller_fiber st);
  cfg.log
    (Printf.sprintf "native server: %s, %d shard(s), %d domain(s), %s"
       (match cfg.mode with
       | Rtc_pool Exec.Locked -> "basekv (run-to-completion, locked)"
       | Rtc_pool Exec.Exclusive -> "erpckv (run-to-completion, exclusive)"
       | Split -> "uTPS (CR/MR split)")
       cfg.shards cfg.domains
       (listen_to_string cfg.listen));
  st

let summarize st =
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 st.shards in
  let split f s = match s.kvs with Split_shard kv -> f kv | Rtc_shard _ -> 0 in
  let mr_ops kv =
    let _, _, ops, _ = Mutps.layer_stats kv in
    ops
  in
  {
    responded = sum (fun s -> Atomic.get s.nt.responded);
    cr_hits = sum (split Mutps.cr_hits);
    forwarded = sum (split Mutps.forwarded);
    mr_ops = sum (split mr_ops);
    steals = Sched.steals st.sched;
    conns = st.accepted;
  }

let serve st =
  Sched.run st.sched;
  summarize st

let run cfg = serve (prepare cfg)

type handle = { state : state; domain : summary Domain.t }

let launch cfg =
  let st = prepare cfg in
  { state = st; domain = Domain.spawn (fun () -> serve st) }

let stop handle = Atomic.set handle.state.stop true
let wait handle = Domain.join handle.domain
