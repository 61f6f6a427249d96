(* Native socket server: the real-machine twin of the simulated KVS.

   One listener (TCP or Unix-domain) feeds share-nothing shards (key mod
   nshards); every shard is a full Backend (slab + index) driven by the
   very same per-operation code as the simulator — [Rtc.worker_body] for
   the run-to-completion systems, and a CR/MR fiber pair mirroring
   [Mutps]'s staged split — running on {!Fiber}s over the {!Sched}
   work-stealing pool instead of simulated threads.  The memory
   environments are free-running ([Env.make_freerun]): charging becomes a
   no-op and no DES effect is ever performed, so the shared KVS layers
   execute natively unchanged.

   Wire protocol: {!Resp} (GET/SET/DEL/PING).  Per-connection response
   order equals request order: every parsed command takes a ticket, and a
   sequencer releases encoded replies in ticket order no matter which
   shard fiber completes them.

   Threading picture (D rules): the poller fiber owns all socket state
   and each connection's read side; shard fibers own their backend; the
   only cross-fiber state is the per-shard rx queue ([rx_lock]), the
   connection table ([conns_lock]) and each connection's reply sequencer
   ([out_lock]) — three distinct single-level locks, never nested. *)

module Env = Mutps_mem.Env
module Simthread = Mutps_sim.Simthread
module Request = Mutps_queue.Request
module Message = Mutps_net.Message
module Transport = Mutps_net.Transport
module Item = Mutps_store.Item
module Index = Mutps_index.Index_intf
module Backend = Mutps_kvs.Backend
module Config = Mutps_kvs.Config
module Exec = Mutps_kvs.Exec
module Rtc = Mutps_kvs.Rtc
module Fwd = Mutps_kvs.Fwd

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
  refused : int;  (** connections refused: fd beyond [select]'s reach *)
}

(* ------------------------------------------------------------------ *)
(* Native transport: the same first-class interface the simulated      *)
(* transports implement, over an in-process handoff queue.  Addresses  *)
(* are synthetic — the free-running Env never dereferences them.       *)
(* ------------------------------------------------------------------ *)

type native_tr = {
  rx_lock : Mutex.t;  (* guards rx, by_seq, next_seq *)
  rx : (int * Message.t) Queue.t;
  by_seq : (int, Message.t) Hashtbl.t;
  mutable next_seq : int;
  resp_top : int Atomic.t;
  inflight : int Atomic.t;
  responded : int Atomic.t;
  mutable on_resp : Message.t -> bytes option -> unit;
}

let slot_stride = 4096

let make_transport () =
  let nt =
    {
      rx_lock = Mutex.create ();
      rx = Queue.create ();
      by_seq = Hashtbl.create 256;
      next_seq = 0;
      resp_top = Atomic.make 0x4000_0000;
      inflight = Atomic.make 0;
      responded = Atomic.make 0;
      on_resp = (fun _ _ -> ());
    }
  in
  let tr =
    {
      Transport.name = "native";
      deliver =
        (fun msg ->
          Mutex.lock nt.rx_lock;
          let seq = nt.next_seq in
          nt.next_seq <- seq + 1;
          Queue.push (seq, msg) nt.rx;
          Hashtbl.replace nt.by_seq seq msg;
          Mutex.unlock nt.rx_lock;
          Atomic.incr nt.inflight);
      poll =
        (fun _env ~worker:_ ->
          Mutex.lock nt.rx_lock;
          let m = Queue.take_opt nt.rx in
          Mutex.unlock nt.rx_lock;
          m);
      slot_addr = (fun seq -> 0x1000_0000 + (seq * slot_stride));
      slot_len = (fun _ -> slot_stride);
      resp_alloc =
        (fun ~worker:_ ~bytes -> Atomic.fetch_and_add nt.resp_top (max 64 bytes));
      post_response =
        (fun _env ~seq ~resp_addr:_ ~bytes:_ ~value ->
          Mutex.lock nt.rx_lock;
          let msg = Hashtbl.find_opt nt.by_seq seq in
          Hashtbl.remove nt.by_seq seq;
          Mutex.unlock nt.rx_lock;
          match msg with
          | Some msg ->
            Atomic.decr nt.inflight;
            Atomic.incr nt.responded;
            nt.on_resp msg value
          | None -> invalid_arg "native transport: unknown response seq");
      set_on_response = (fun f -> nt.on_resp <- f);
      workers = (fun () -> 1);
      set_workers = (fun _ -> ());
      reconfig_in_progress = (fun () -> false);
      outstanding = (fun () -> Atomic.get nt.inflight);
    }
  in
  (nt, tr)

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

type shard = {
  sid : int; [@warning "-69"]  (* diagnostic identity *)
  backend : Backend.t;
  nt : native_tr;
  tr : Transport.t;
  stop : bool Atomic.t;  (* the server-wide stop flag, shared *)
  fwd_q : Fwd.t Deque.t;  (* CR -> MR (Split mode) *)
  comp_q : Fwd.t Deque.t;  (* MR -> CR completions *)
  mutable cr_hits : int;  (* CR-fiber-only *)
  mutable forwarded : int;  (* CR-fiber-only *)
  mutable mr_ops : int;  (* MR-fiber-only *)
}

let shard_of_key ~shards key =
  Int64.to_int (Int64.rem (Int64.logand key Int64.max_int) (Int64.of_int shards))

let make_shard cfg ~stop sid =
  let kcfg =
    Config.default ~cores:2
      ~capacity:(max 64 ((cfg.keyspace / max 1 cfg.shards) + 64))
      ()
  in
  let backend = Backend.create kcfg in
  if cfg.keyspace > 0 then
    Backend.populate backend
      ~owned:(fun key -> shard_of_key ~shards:cfg.shards key = sid)
      ~keyspace:cfg.keyspace ~value_size:cfg.value_size;
  let nt, tr = make_transport () in
  {
    sid;
    backend;
    nt;
    tr;
    stop;
    fwd_q = Deque.create ();
    comp_q = Deque.create ();
    cr_hits = 0;
    forwarded = 0;
    mr_ops = 0;
  }

let check_stop shard = if Atomic.get shard.stop then raise Fiber.Stop

(* Free-running environment on a detached context: the shared KVS code
   charges into it, the charges are discarded, no DES effect fires. *)
let freerun_env shard ~core =
  let ctx = Simthread.detached ~name:"native" shard.backend.Backend.engine in
  Env.make_freerun ~ctx ~hier:shard.backend.Backend.hier ~core

(* --- run-to-completion shard: the simulator's own worker loop -------- *)

let native_substrate shard =
  {
    Rtc.make_env =
      (fun ctx ~core ->
        Env.make_freerun ~ctx ~hier:shard.backend.Backend.hier ~core);
    idle =
      (fun _ctx ->
        check_stop shard;
        Fiber.yield ());
    flush =
      (fun _ctx ->
        check_stop shard;
        Fiber.yield ());
  }

let rtc_fiber shard ~lock () =
  let stats = Rtc.make_stats () in
  let ctx = Simthread.detached ~name:"native-rtc" shard.backend.Backend.engine in
  Rtc.worker_body ~substrate:(native_substrate shard) shard.backend shard.tr
    ~lock ~worker:0 stats ctx

(* --- Split shard: CR/MR fiber pair (the native μTPS) ----------------- *)

type cr_state = {
  hot_cap : int;
  cache : (int64, bytes) Hashtbl.t;  (* key -> latest value *)
  evict : int64 Queue.t;  (* FIFO eviction order *)
  fwd_epoch : (int, int) Hashtbl.t;  (* GET seq -> put_epoch at forward *)
  mutable put_epoch : int;  (* bumped on every put/delete *)
  mutable stalled : Fwd.t option;  (* forward blocked on a full ring *)
}

let cache_insert cs key v =
  if cs.hot_cap > 0 then begin
    if not (Hashtbl.mem cs.cache key) then begin
      let budget = ref (Queue.length cs.evict) in
      while Hashtbl.length cs.cache >= cs.hot_cap && !budget > 0 do
        decr budget;
        match Queue.take_opt cs.evict with
        | Some old -> Hashtbl.remove cs.cache old
        | None -> budget := 0
      done;
      if Hashtbl.length cs.cache < cs.hot_cap then begin
        Queue.push key cs.evict;
        Hashtbl.replace cs.cache key v
      end
    end
    else Hashtbl.replace cs.cache key v
  end

let try_forward shard cs fwd =
  if Deque.push shard.fwd_q fwd then begin
    shard.forwarded <- shard.forwarded + 1;
    true
  end
  else begin
    cs.stalled <- Some fwd;
    false
  end

let cr_respond_hit shard env ~seq v =
  shard.cr_hits <- shard.cr_hits + 1;
  let bytes = Exec.ack_bytes + Bytes.length v in
  let resp_addr = shard.tr.Transport.resp_alloc ~worker:0 ~bytes in
  shard.tr.Transport.post_response env ~seq ~resp_addr ~bytes ~value:(Some v)

let cr_handle shard env cs ~seq (msg : Message.t) =
  let req = msg.Message.req in
  let key = req.Request.key in
  match req.Request.kind with
  | Request.Get -> (
    match Hashtbl.find_opt cs.cache key with
    | Some v -> cr_respond_hit shard env ~seq v
    | None ->
      Hashtbl.replace cs.fwd_epoch seq cs.put_epoch;
      ignore (try_forward shard cs (Fwd.make ~seq ~cr:0 ~msg ~prefix:[])))
  | Request.Put ->
    (* write-through: the cached copy tracks the latest value while the
       authoritative write still goes through the MR layer *)
    (match msg.Message.value with
    | Some v when Hashtbl.mem cs.cache key ->
      Hashtbl.replace cs.cache key (Bytes.copy v)
    | Some _ | None -> ());
    cs.put_epoch <- cs.put_epoch + 1;
    ignore (try_forward shard cs (Fwd.make ~seq ~cr:0 ~msg ~prefix:[]))
  | Request.Delete ->
    Hashtbl.remove cs.cache key;
    cs.put_epoch <- cs.put_epoch + 1;
    ignore (try_forward shard cs (Fwd.make ~seq ~cr:0 ~msg ~prefix:[]))
  | Request.Scan ->
    ignore (try_forward shard cs (Fwd.make ~seq ~cr:0 ~msg ~prefix:[]))

(* Reap MR completions and post their responses.  The commit orders the
   reap before the [resp_*] reads — the piggyback protocol's publication
   point (a free-running no-op natively, where the SPMC deque's own
   atomics provide the ordering). *)
let cr_reap shard env cs =
  Env.commit env;
  let progressed = ref false in
  let continue = ref true in
  while !continue do
    match Deque.take shard.comp_q with
    | Some fwd ->
      progressed := true;
      let req = fwd.Fwd.msg.Message.req in
      (match (req.Request.kind, fwd.Fwd.resp_value) with
      | Request.Get, Some v -> (
        (* epoch-guarded fill: only cache a GET result no put/delete has
           possibly invalidated since it was forwarded *)
        match Hashtbl.find_opt cs.fwd_epoch fwd.Fwd.seq with
        | Some e when e = cs.put_epoch ->
          cache_insert cs req.Request.key v
        | Some _ | None -> ())
      | _ -> ());
      Hashtbl.remove cs.fwd_epoch fwd.Fwd.seq;
      shard.tr.Transport.post_response env ~seq:fwd.Fwd.seq
        ~resp_addr:fwd.Fwd.resp_addr ~bytes:fwd.Fwd.resp_bytes
        ~value:fwd.Fwd.resp_value
    | None -> continue := false
  done;
  !progressed

let cr_fiber (cfg : config) shard () =
  let env = freerun_env shard ~core:0 in
  let cs =
    {
      hot_cap = cfg.hot_cap;
      cache = Hashtbl.create (max 16 cfg.hot_cap);
      evict = Queue.create ();
      fwd_epoch = Hashtbl.create 64;
      put_epoch = 0;
      stalled = None;
    }
  in
  while true do
    check_stop shard;
    let progressed = cr_reap shard env cs in
    let progressed =
      match cs.stalled with
      | Some fwd ->
        (* backpressure: stop polling rx until the ring accepts it *)
        cs.stalled <- None;
        if try_forward shard cs fwd then true else progressed
      | None -> (
        match shard.tr.Transport.poll env ~worker:0 with
        | Some (seq, msg) ->
          cr_handle shard env cs ~seq msg;
          true
        | None -> progressed)
    in
    ignore progressed;
    Fiber.yield ()
  done

let mr_execute shard env (fwd : Fwd.t) =
  let index = shard.backend.Backend.index in
  let req = fwd.Fwd.msg.Message.req in
  let key = req.Request.key in
  let ack () =
    fwd.Fwd.resp_addr <-
      shard.tr.Transport.resp_alloc ~worker:1 ~bytes:Exec.ack_bytes;
    fwd.Fwd.resp_bytes <- Exec.ack_bytes
  in
  match req.Request.kind with
  | Request.Get -> (
    match index.Index.lookup env key with
    | Some item ->
      let value = Item.read env item in
      let bytes = Exec.ack_bytes + Bytes.length value in
      fwd.Fwd.resp_addr <- shard.tr.Transport.resp_alloc ~worker:1 ~bytes;
      fwd.Fwd.resp_bytes <- bytes;
      fwd.Fwd.resp_value <- Some value
    | None -> ack ())
  | Request.Put ->
    let value =
      match fwd.Fwd.msg.Message.value with
      | Some v -> v
      | None -> invalid_arg "native MR: put without payload"
    in
    (match index.Index.lookup env key with
    | Some item -> Item.write_exclusive env item value shard.backend.Backend.slab
    | None ->
      let item = Item.create shard.backend.Backend.slab ~value in
      index.Index.insert env key item);
    ack ()
  | Request.Delete ->
    ignore (index.Index.remove env key);
    ack ()
  | Request.Scan ->
    (* not served over the wire; ack so the connection is never wedged *)
    ack ()

let mr_fiber shard () =
  let env = freerun_env shard ~core:1 in
  while true do
    check_stop shard;
    (match Deque.take shard.fwd_q with
    | Some fwd ->
      mr_execute shard env fwd;
      while not (Deque.push shard.comp_q fwd) do
        check_stop shard;
        Fiber.yield ()
      done;
      shard.mr_ops <- shard.mr_ops + 1
    | None -> ());
    Fiber.yield ()
  done

(* ------------------------------------------------------------------ *)
(* Connections and the socket poller                                   *)
(* ------------------------------------------------------------------ *)

type conn = {
  cid : int;
  fd : Unix.file_descr;
  mutable rbuf : bytes;  (* poller-only read accumulation *)
  mutable rlen : int;
  mutable tickets : int;  (* poller-only: next request ticket *)
  out_lock : Mutex.t;  (* guards pending, next_out, obuf *)
  pending : (int, Resp.reply) Hashtbl.t;
  mutable next_out : int;
  obuf : Buffer.t;  (* in-order encoded replies awaiting the socket *)
  mutable wpend : string;  (* poller-only write staging *)
  mutable woff : int;
  mutable closing : bool;  (* close once every reply has been flushed *)
}

(* Release replies in ticket order: a completion may land out of order
   (different shards), so park it in [pending] and drain the prefix. *)
let conn_complete conn ~ticket reply =
  Mutex.lock conn.out_lock;
  Hashtbl.replace conn.pending ticket reply;
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt conn.pending conn.next_out with
    | Some r ->
      Hashtbl.remove conn.pending conn.next_out;
      conn.next_out <- conn.next_out + 1;
      Resp.encode_reply conn.obuf r
    | None -> continue := false
  done;
  Mutex.unlock conn.out_lock

type state = {
  cfg : config;
  shards : shard array;
  sched : Sched.t;
  stop : bool Atomic.t;
  lfd : Unix.file_descr;
  conns_lock : Mutex.t;  (* guards the completion-lookup table only *)
  conns : (int, conn) Hashtbl.t;
  (* the rest is poller-only *)
  mutable accepted : int;
  mutable refused : int;
  mutable live : conn list;  (* every open connection *)
  by_fd : (Unix.file_descr, conn) Hashtbl.t;  (* readable fd -> its conn *)
  mutable watched : Unix.file_descr list;  (* listener + non-closing conns *)
  mutable rewatch : bool;  (* [watched] is stale: a conn opened or began closing *)
  mutable closing_conns : int;  (* live conns with [closing] set *)
}

let complete_by_id st ~cid ~ticket reply =
  Mutex.lock st.conns_lock;
  let conn = Hashtbl.find_opt st.conns cid in
  Mutex.unlock st.conns_lock;
  match conn with
  | Some conn -> conn_complete conn ~ticket reply
  | None -> ()  (* connection closed with replies in flight *)

(* Stop reading [conn]: it leaves the watched set at the next select and
   closes once its replies have drained. *)
let begin_close st conn =
  if not conn.closing then begin
    conn.closing <- true;
    st.closing_conns <- st.closing_conns + 1;
    st.rewatch <- true
  end

(* The peer is gone: nothing more can reach it, so drop the replies still
   owed and let the close sweep take the connection at once.  A reply
   completing later parks in [pending] and is never encoded. *)
let conn_drop st conn =
  begin_close st conn;
  conn.wpend <- "";
  conn.woff <- 0;
  Mutex.lock conn.out_lock;
  Hashtbl.reset conn.pending;
  Buffer.clear conn.obuf;
  conn.next_out <- conn.tickets;
  Mutex.unlock conn.out_lock

(* Dispatch one parsed command: route KVS ops to their shard's transport
   (the reply arrives through the shard's response callback), answer
   PING inline through the same sequencer. *)
let dispatch st conn cmd =
  let ticket = conn.tickets in
  conn.tickets <- ticket + 1;
  let send req value =
    let shard =
      st.shards.(shard_of_key ~shards:(Array.length st.shards)
                   req.Request.key)
    in
    shard.tr.Transport.deliver
      {
        Message.id = ticket;
        client = conn.cid;
        sent_at = 0;
        target = -1;
        req;
        value;
      }
  in
  match cmd with
  | Resp.Ping -> conn_complete conn ~ticket (Resp.Ok_simple "PONG")
  | Resp.Get key -> send (Request.get ~key ~buf:0) None
  | Resp.Del key -> send (Request.delete ~key ~buf:0) None
  | Resp.Set (key, v) ->
    if Bytes.length v > Request.max_size then begin
      conn_complete conn ~ticket (Resp.Error "value too large");
      begin_close st conn
    end
    else send (Request.put ~key ~size:(Bytes.length v) ~buf:0) (Some v)

let conn_parse st conn =
  let continue = ref true in
  while !continue && not conn.closing do
    match Resp.parse_command conn.rbuf ~len:conn.rlen with
    | `Need_more -> continue := false
    | `Bad reason ->
      let ticket = conn.tickets in
      conn.tickets <- ticket + 1;
      conn_complete conn ~ticket (Resp.Error reason);
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
  match Unix.read conn.fd conn.rbuf conn.rlen read_chunk with
  | 0 -> begin_close st conn  (* peer shutdown; flush replies then close *)
  | n ->
    conn.rlen <- conn.rlen + n;
    conn_parse st conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    conn_drop st conn

(* Move sequenced replies to the socket. *)
let conn_flush st conn =
  if conn.woff >= String.length conn.wpend then begin
    Mutex.lock conn.out_lock;
    if Buffer.length conn.obuf > 0 then begin
      conn.wpend <- Buffer.contents conn.obuf;
      conn.woff <- 0;
      Buffer.clear conn.obuf
    end;
    Mutex.unlock conn.out_lock
  end;
  let len = String.length conn.wpend - conn.woff in
  if len > 0 then begin
    match Unix.write_substring conn.fd conn.wpend conn.woff len with
    | n -> conn.woff <- conn.woff + n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      conn_drop st conn
  end

(* A closing connection drains once every issued ticket has its reply
   encoded and written. *)
let conn_drained conn =
  conn.woff >= String.length conn.wpend
  &&
  (Mutex.lock conn.out_lock;
   let d = conn.next_out = conn.tickets && Buffer.length conn.obuf = 0 in
   Mutex.unlock conn.out_lock;
   d)

let close_conn st conn =
  Mutex.lock st.conns_lock;
  Hashtbl.remove st.conns conn.cid;
  Mutex.unlock st.conns_lock;
  Hashtbl.remove st.by_fd conn.fd;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ())

(* [Unix.select] cannot watch an fd at or above FD_SETSIZE: it raises
   EINVAL before making the syscall.  Probing with the call itself keeps
   the limit the platform's, at one zero-timeout select per accept. *)
let rec selectable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> selectable fd

let too_many_clients = "-ERR max number of clients reached\r\n"

let refuse st fd =
  st.refused <- st.refused + 1;
  (try
     ignore
       (Unix.write_substring fd too_many_clients 0
          (String.length too_many_clients))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_conns st =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true st.lfd with
    | fd, _ when not (selectable fd) -> refuse st fd
    | fd, _ ->
      Unix.set_nonblock fd;
      let conn =
        {
          cid = st.accepted;
          fd;
          rbuf = Bytes.create read_chunk;
          rlen = 0;
          tickets = 0;
          out_lock = Mutex.create ();
          pending = Hashtbl.create 16;
          next_out = 0;
          obuf = Buffer.create 256;
          wpend = "";
          woff = 0;
          closing = false;
        }
      in
      st.accepted <- st.accepted + 1;
      Mutex.lock st.conns_lock;
      Hashtbl.replace st.conns conn.cid conn;
      Mutex.unlock st.conns_lock;
      st.live <- conn :: st.live;
      Hashtbl.replace st.by_fd fd conn;
      st.rewatch <- true
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.EMFILE
           | Unix.ENFILE), _, _)
      -> continue := false
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
  done

let close_sweep st =
  match List.partition (fun c -> c.closing && conn_drained c) st.live with
  | [], _ -> ()
  | closed, kept ->
    List.iter (close_conn st) closed;
    st.live <- kept;
    st.closing_conns <- st.closing_conns - List.length closed

(* One poller turn, driven by readiness: replies finished during the last
   pass over the shard fibers leave first, then one zero-timeout select
   names the sockets worth an accept or a read, and nothing else is
   touched. *)
let poll_turn st =
  List.iter (conn_flush st) st.live;
  if st.rewatch then begin
    st.watched <-
      st.lfd
      :: List.filter_map
           (fun c -> if c.closing then None else Some c.fd)
           st.live;
    st.rewatch <- false
  end;
  let readable =
    match Unix.select st.watched [] [] 0.0 with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  List.iter
    (fun fd ->
      if fd = st.lfd then accept_conns st
      else
        match Hashtbl.find_opt st.by_fd fd with
        | Some conn -> conn_read st conn
        | None -> ())
    readable;
  if st.closing_conns > 0 then close_sweep st

(* The poller fiber: owns the listener and every connection's socket I/O.
   It never blocks (the select polls, accept/read/write are non-blocking)
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
      List.iter (close_conn st) st.live;
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
  match cfg.listen with
  | Unix_path path ->
    (try Sys.remove path with Sys_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
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
      sched = Sched.create ~workers:cfg.domains ();
      stop;
      lfd;
      conns_lock = Mutex.create ();
      conns = Hashtbl.create 64;
      accepted = 0;
      refused = 0;
      live = [];
      by_fd = Hashtbl.create 64;
      watched = [ lfd ];
      rewatch = false;
      closing_conns = 0;
    }
  in
  Array.iter
    (fun shard ->
      shard.tr.Transport.set_on_response (fun (msg : Message.t) value ->
          complete_by_id st ~cid:msg.Message.client ~ticket:msg.Message.id
            (Resp.reply_for_op msg.Message.req.Request.kind value)))
    shards;
  Array.iter
    (fun shard ->
      match cfg.mode with
      | Rtc_pool lock -> Sched.spawn st.sched (rtc_fiber shard ~lock)
      | Split ->
        Sched.spawn st.sched (cr_fiber cfg shard);
        Sched.spawn st.sched (mr_fiber shard))
    shards;
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
  let responded = ref 0 and cr_hits = ref 0 and forwarded = ref 0 in
  let mr_ops = ref 0 in
  Array.iter
    (fun s ->
      responded := !responded + Atomic.get s.nt.responded;
      cr_hits := !cr_hits + s.cr_hits;
      forwarded := !forwarded + s.forwarded;
      mr_ops := !mr_ops + s.mr_ops)
    st.shards;
  {
    responded = !responded;
    cr_hits = !cr_hits;
    forwarded = !forwarded;
    mr_ops = !mr_ops;
    steals = Sched.steals st.sched;
    conns = st.accepted;
    refused = st.refused;
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
