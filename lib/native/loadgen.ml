(* Closed-loop load generator for the native server.

   Each connection keeps exactly one request outstanding: it draws the
   next operation from its own deterministic {!Mutps_workload.Opgen}
   stream, sends it, and measures the wall-clock time to the full reply.
   Connections are multiplexed with one [Nbio.poll], so one generator
   thread drives many closed loops — the native analogue of the
   simulator's {!Mutps_net.Client} pool.

   Put payloads come from [Client.payload], the same deterministic
   bytes-for-key function the simulated clients use, so a GET's reply is
   checkable and the sim-vs-native equivalence test can compare byte
   streams exactly. *)

module Opgen = Mutps_workload.Opgen
module Stats = Mutps_sim.Stats
module Request = Mutps_queue.Request

type config = {
  connect : Server.listen;
  conns : int;
  ops : int;  (** total operations across every connection *)
  spec : Opgen.spec;
  seed : int;
}

type result = {
  completed : int;
  errors : int;  (** [-ERR] replies *)
  wrong : int;  (** replies other than the one the operation owes *)
  get_hits : int;
  get_misses : int;
  elapsed_ns : int;
  hist : Stats.Hist.t;  (** per-op latency in nanoseconds *)
}

type lg_conn = {
  fd : Unix.file_descr;
  gen : Opgen.t;
  mutable rbuf : bytes;
  mutable rlen : int;
  mutable op : Opgen.op;  (* the outstanding request *)
  mutable sent_ns : int;  (* when the outstanding request went out *)
  mutable outstanding : bool;
}

exception Protocol_error of string

(* Connected, then non-blocking: [Nbio]'s calls never wait. *)
let connect_fd (target : Server.listen) =
  let domain, addr =
    match target with
    | Server.Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Server.Tcp (host, port) ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  Unix.set_nonblock fd;
  fd

(* Scans are not on the wire protocol; a spec that asks for one degrades
   to a GET of the scan's start key. *)
let command_of_op (op : Opgen.op) =
  match op.Opgen.kind with
  | Request.Get | Request.Scan -> Resp.Get op.Opgen.key
  | Request.Put ->
    Resp.Set
      (op.Opgen.key,
       Mutps_net.Client.payload ~key:op.Opgen.key ~size:(max 1 op.Opgen.size))
  | Request.Delete -> Resp.Del op.Opgen.key

(* One request is far below a socket's buffer, so a full buffer is rare
   and short-lived: wait it out in place. *)
let send_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    let n = Nbio.write fd b !off (len - !off) in
    if n >= 0 then off := !off + n
    else if n = Nbio.would_block then Domain.cpu_relax ()
    else raise (Protocol_error "connection lost on write")
  done

(* What [op] may be answered, every value being its key's deterministic
   payload: a GET gets that payload (at whatever size was last written) or
   nil, a SET or DEL gets +OK.  An -ERR is counted as an error instead. *)
let owed (op : Opgen.op) reply =
  match (op.Opgen.kind, reply) with
  | (Request.Get | Request.Scan), Resp.Value v ->
    Bytes.equal v
      (Mutps_net.Client.payload ~key:op.Opgen.key ~size:(Bytes.length v))
  | (Request.Get | Request.Scan), Resp.Nil -> true
  | (Request.Put | Request.Delete), Resp.Ok_simple "OK" -> true
  | _, Resp.Error _ -> true
  | _, (Resp.Value _ | Resp.Nil | Resp.Ok_simple _) -> false

let send_next c =
  let buf = Buffer.create 64 in
  c.op <- Opgen.next c.gen;
  Resp.encode_command buf (command_of_op c.op);
  c.sent_ns <- Clock.now_ns ();
  c.outstanding <- true;
  send_all c.fd (Buffer.to_bytes buf)

(* Read what [c]'s socket holds and take its reply, if it is whole. *)
let receive c ~on_reply =
  if Bytes.length c.rbuf - c.rlen < 4096 then begin
    let bigger = Bytes.create (2 * Bytes.length c.rbuf) in
    Bytes.blit c.rbuf 0 bigger 0 c.rlen;
    c.rbuf <- bigger
  end;
  let n = Nbio.read c.fd c.rbuf c.rlen 4096 in
  if n = 0 then raise (Protocol_error "server closed the connection")
  else if n > 0 then c.rlen <- c.rlen + n
  else if n <> Nbio.would_block then
    raise (Protocol_error "connection lost on read");
  match Resp.parse_reply c.rbuf ~len:c.rlen with
  | `Need_more -> ()
  | `Bad reason -> raise (Protocol_error reason)
  | `Ok (reply, consumed) ->
    Bytes.blit c.rbuf consumed c.rbuf 0 (c.rlen - consumed);
    c.rlen <- c.rlen - consumed;
    on_reply c reply

let run cfg =
  if cfg.conns < 1 then invalid_arg "Loadgen: conns < 1";
  (* a server winding down mid-write must surface as EPIPE, not kill the
     process with SIGPIPE *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  Fun.protect ~finally:(fun () ->
      match prev_sigpipe with
      | Some h -> Sys.set_signal Sys.sigpipe h
      | None -> ())
  @@ fun () ->
  let nconns = min cfg.conns (max 1 cfg.ops) in
  let conns =
    Array.init nconns (fun i ->
        {
          fd = connect_fd cfg.connect;
          gen = Opgen.make cfg.spec ~seed:(cfg.seed + (1000 * i));
          rbuf = Bytes.create 4096;
          rlen = 0;
          op = { Opgen.kind = Request.Get; key = 0L; size = 0; scan_count = 0 };
          sent_ns = 0;
          outstanding = false;
        })
  in
  let hist = Stats.Hist.create () in
  let completed = ref 0 and started = ref 0 in
  let errors = ref 0 and wrong = ref 0 and get_hits = ref 0 and get_misses = ref 0 in
  let t0 = Clock.now_ns () in
  Array.iter
    (fun c ->
      if !started < cfg.ops then begin
        incr started;
        send_next c
      end)
    conns;
  let on_reply c reply =
    Stats.Hist.add hist (Clock.now_ns () - c.sent_ns);
    if not (owed c.op reply) then incr wrong;
    (match reply with
    | Resp.Value _ -> incr get_hits
    | Resp.Nil -> incr get_misses
    | Resp.Ok_simple _ -> ()
    | Resp.Error _ -> incr errors);
    incr completed;
    c.outstanding <- false;
    if !started < cfg.ops then begin
      incr started;
      send_next c
    end
  in
  (* the connections awaiting a reply are polled, [polled.(k)] naming the
     connection behind [fds.(k)] *)
  let fds = Array.map (fun c -> c.fd) conns in
  let polled = Array.make nconns 0 and ready = Array.make nconns 0 in
  while !completed < !started do
    let n = ref 0 in
    Array.iteri
      (fun i c ->
        if c.outstanding then begin
          fds.(!n) <- c.fd;
          polled.(!n) <- i;
          incr n
        end)
      conns;
    let nready = Nbio.poll fds !n ready ~timeout_ms:1000 in
    if nready < 0 && nready <> Nbio.would_block then
      raise (Protocol_error "poll failed");
    for k = 0 to !n - 1 do
      if ready.(k) <> 0 then
        receive conns.(polled.(k)) ~on_reply
    done
  done;
  let elapsed_ns = Clock.now_ns () - t0 in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  {
    completed = !completed;
    errors = !errors;
    wrong = !wrong;
    get_hits = !get_hits;
    get_misses = !get_misses;
    elapsed_ns;
    hist;
  }

let ops_per_s r =
  if r.elapsed_ns = 0 then 0.0
  else float_of_int r.completed /. (float_of_int r.elapsed_ns /. 1e9)

let percentile_us r p = float_of_int (Stats.Hist.percentile r.hist p) /. 1000.0
