(* Native workloads: a server child on a Unix socket, driven closed-loop
   by this process over two connections.  Every reply is checked; the
   server is read from outside through /proc and its summary lines. *)

module Server = Mutps_native.Server
module Resp = Mutps_native.Resp
module Clock = Mutps_native.Clock
module Opgen = Mutps_workload.Opgen
module Request = Mutps_queue.Request
module Payload = Mutps_net.Client

let conns = 2

(* A server whose client vanished still exits on its own. *)
let max_lifetime_s = 170.0

(* A reply slower than this means the server is wedged. *)
let reply_timeout_s = 5.0

let mode_of (w : Spec.workload) =
  match w.Spec.system with
  | Spec.Native mode -> mode
  | Spec.Sim _ -> invalid_arg "Native_bench: simulated workload"

let command_of_op (op : Opgen.op) =
  match op.Opgen.kind with
  | Request.Put ->
    Resp.Set (op.Opgen.key, Payload.payload ~key:op.Opgen.key ~size:Spec.value_size)
  | Request.Get | Request.Scan | Request.Delete -> Resp.Get op.Opgen.key

(* The reply the store owes: every key is preloaded with, and only ever
   overwritten by, its deterministic payload. *)
let expected_reply (op : Opgen.op) =
  match op.Opgen.kind with
  | Request.Put -> Resp.Ok_simple "OK"
  | Request.Get | Request.Scan | Request.Delete ->
    Resp.Value (Payload.payload ~key:op.Opgen.key ~size:Spec.value_size)

(* ---- the server child ----------------------------------------------- *)

(* What [mutps-cli serve --backend native] runs, with the ledger's fixed
   knobs.  It prints "ready" once the listener is bound, serves until its
   stdin closes, then prints the server's summary as metric lines. *)
let serve (w : Spec.workload) ~listen =
  let handle =
    Server.launch
      {
        Server.mode = mode_of w;
        listen = Server.Unix_path listen;
        domains = 1;
        shards = Spec.native_shards;
        keyspace = Spec.native_keyspace;
        value_size = Spec.value_size;
        hot_cap = Spec.native_hot_cap;
        duration_s = Some max_lifetime_s;
        log = ignore;
      }
  in
  print_endline "ready";
  ignore (In_channel.input_all stdin);
  Server.stop handle;
  let s = Server.wait handle in
  List.iter
    (fun (name, v) -> Host.print_metric name (float_of_int v))
    [
      ("responded", s.Server.responded); ("cr_hits", s.Server.cr_hits);
      ("forwarded", s.Server.forwarded); ("steals", s.Server.steals);
    ]

(* ---- the client ----------------------------------------------------- *)

(* Spans of traced requests, kept for the Chrome trace: one stamp vector
   per boundary, indexed by request. *)
type spans = {
  round : Samples.vec;
  conn : Samples.vec;
  start : Samples.vec;  (* request about to be written *)
  written : Samples.vec;  (* write returned *)
  ready : Samples.vec;  (* the read completing the reply returned *)
  parsed : Samples.vec;  (* reply parsed *)
}

let max_kept_spans = 20_000

let spans () =
  let v () = Samples.vec () in
  { round = v (); conn = v (); start = v (); written = v (); ready = v (); parsed = v () }

type conn = {
  id : int;
  fd : Unix.file_descr;
  gen : Opgen.t;
  wbuf : Buffer.t;
  rbuf : bytes;
  mutable rlen : int;
  mutable op : Opgen.op;
  mutable busy : bool;
  mutable t_start : int;
  mutable t_written : int;
}

type state = {
  mutable cs : conn array;
  server_pid : int;
  round_no : int;
  kept : spans;
  mutable sent : int;
  mutable failed : int;
}

type trial = {
  ops : int;
  elapsed_ns : int;
  lat_us : int array;  (** sorted *)
  server_cpu_ns : int;
  traced : bool;
  write_ns : int;  (** span sums over the trial's requests (traced only) *)
  wait_ns : int;
  parse_ns : int;
}

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> write_all fd s off

let send st c =
  let op = Opgen.next c.gen in
  c.op <- op;
  Buffer.clear c.wbuf;
  Resp.encode_command c.wbuf (command_of_op op);
  st.sent <- st.sent + 1;
  c.busy <- true;
  c.t_start <- Clock.now_ns ();
  write_all c.fd (Buffer.contents c.wbuf) 0;
  c.t_written <- Clock.now_ns ()

(* Non-blocking read of whatever has arrived; true if bytes came in. *)
let poll_read c =
  if c.rlen = Bytes.length c.rbuf then failwith "reply larger than the read buffer";
  match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | 0 -> failwith "server closed the connection"
  | n ->
    c.rlen <- c.rlen + n;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> false

(* One closed-loop trial: each connection keeps one request outstanding
   until [seconds] have passed, then the last replies drain.  The client
   polls like the server does, so neither CPU ever idles and no reply
   waits on a wake-up. *)
let run_trial ?(max_ops = max_int) st ~seconds ~traced =
  let lat = Samples.vec () in
  let write_ns = ref 0 and wait_ns = ref 0 and parse_ns = ref 0 in
  let cpu0 = (Host.usage st.server_pid).Host.cpu_ns in
  let t0 = Clock.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  Array.iter (send st) st.cs;
  let started = ref (Array.length st.cs) in
  let busy = ref (Array.length st.cs) in
  let last_progress = ref t0 in
  while !busy > 0 do
    Array.iter
      (fun c ->
        if c.busy && poll_read c then begin
          let t_ready = Clock.now_ns () in
          last_progress := t_ready;
          match Resp.parse_reply c.rbuf ~len:c.rlen with
          | `Need_more -> ()
          | `Bad reason -> failwith ("unparsable reply: " ^ reason)
          | `Ok (reply, consumed) ->
            Bytes.blit c.rbuf consumed c.rbuf 0 (c.rlen - consumed);
            c.rlen <- c.rlen - consumed;
            let t_parsed = Clock.now_ns () in
            if reply <> expected_reply c.op then st.failed <- st.failed + 1;
            Samples.push lat ((t_parsed - c.t_start + 500) / 1000);
            if traced then begin
              write_ns := !write_ns + (c.t_written - c.t_start);
              wait_ns := !wait_ns + (t_ready - c.t_written);
              parse_ns := !parse_ns + (t_parsed - t_ready);
              let k = st.kept in
              if Samples.length k.start < max_kept_spans then begin
                Samples.push k.round st.round_no;
                Samples.push k.conn c.id;
                Samples.push k.start c.t_start;
                Samples.push k.written c.t_written;
                Samples.push k.ready t_ready;
                Samples.push k.parsed t_parsed
              end
            end;
            if t_parsed < deadline && !started < max_ops then begin
              incr started;
              send st c
            end
            else begin
              c.busy <- false;
              decr busy
            end
        end)
      st.cs;
    if Clock.now_ns () - !last_progress > int_of_float (reply_timeout_s *. 1e9) then
      failwith "no reply within the timeout"
  done;
  let elapsed_ns = Clock.now_ns () - t0 in
  let server_cpu_ns = (Host.usage st.server_pid).Host.cpu_ns - cpu0 in
  let sl = Samples.sorted lat in
  {
    ops = Samples.length lat;
    elapsed_ns;
    lat_us = sl;
    server_cpu_ns;
    traced;
    write_ns = !write_ns;
    wait_ns = !wait_ns;
    parse_ns = !parse_ns;
  }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  fd

(* ---- one round: a fresh server process ------------------------------- *)

type params = {
  warm_ops : int;  (** discarded first trial, a fixed amount of work *)
  trial_s : float;
  trials : int;  (** timed trials per round (each traced one adds a twin) *)
}

type round = {
  setup_s : float;  (** spawn to first successful connect *)
  rss_mb : float;  (** server VmHWM after the warm-up *)
  timed : trial list;
  usage : Host.usage;  (** server, over the timed trials *)
  timed_ns : int;
  summary : (string * float) list;
  sent : int;
  failed : int;
  error : string option;
}

let measure st ~params ~trace =
  ignore (run_trial st ~max_ops:params.warm_ops ~seconds:max_lifetime_s ~traced:false);
  (* the server's memory after preload and the fixed warm-up: later
     growth is garbage whose peak tracks throughput, not footprint *)
  let rss_mb = Host.peak_rss_mb st.server_pid in
  let u0 = Host.usage st.server_pid in
  let t0 = Clock.now_ns () in
  (* traced trials alternate with untraced ones, so the tracing overhead
     is measured under the same host conditions *)
  let timed =
    List.concat_map
      (fun _ ->
        let plain = run_trial st ~seconds:params.trial_s ~traced:false in
        if trace then [ plain; run_trial st ~seconds:params.trial_s ~traced:true ] else [ plain ])
      (List.init params.trials Fun.id)
  in
  let timed_ns = Clock.now_ns () - t0 in
  let usage = Host.diff u0 (Host.usage st.server_pid) in
  (timed, usage, timed_ns, rss_mb)

let round (w : Spec.workload) ~self ~placement ~out ~seed ~round_no ~params ~trace ~kept =
  let listen = Filename.concat out (Printf.sprintf "ledger-%d.sock" (Unix.getpid ())) in
  let t0 = Clock.now_ns () in
  let child =
    Host.spawn (Host.pinned placement [ self; "serve"; "--workload"; w.Spec.name; "--listen"; listen ])
  in
  let st = { cs = [||]; server_pid = child.Host.pid; round_no; kept; sent = 0; failed = 0 } in
  let serve_and_measure () =
    if Host.read_line child <> Some "ready" then failwith "server child did not report ready";
    let spec = Spec.opgen_spec w in
    st.cs <-
      Array.init conns (fun id ->
          {
            id;
            fd = connect listen;
            gen = Opgen.make spec ~seed:((seed * 7919) + (round_no * 101) + id);
            wbuf = Buffer.create 128;
            rbuf = Bytes.create 4096;
            rlen = 0;
            op = { Opgen.kind = Request.Get; key = 0L; size = 0; scan_count = 0 };
            busy = false;
            t_start = 0;
            t_written = 0;
          });
    let setup_s = float_of_int (Clock.now_ns () - t0) /. 1e9 in
    let measured = measure st ~params ~trace in
    Array.iter (fun c -> Unix.close c.fd) st.cs;
    (setup_s, measured)
  in
  (* a lost round still counts as an attempted and failed operation *)
  let lost msg =
    {
      setup_s = nan; rss_mb = nan; timed = []; usage = Host.no_usage; timed_ns = 0; summary = [];
      sent = st.sent + 1; failed = st.failed + 1; error = Some msg;
    }
  in
  match serve_and_measure () with
  | setup_s, (timed, usage, timed_ns, rss_mb) -> (
    match Host.finish child with
    | lines, Unix.WEXITED 0 ->
      {
        setup_s; rss_mb; timed; usage; timed_ns;
        summary = Host.metrics_of_lines lines;
        sent = st.sent; failed = st.failed; error = None;
      }
    | _, _ -> lost "server child exited abnormally")
  | exception Failure msg ->
    Host.kill child;
    lost msg
  | exception Unix.Unix_error (e, fn, _) ->
    Host.kill child;
    lost (Printf.sprintf "%s: %s" fn (Unix.error_message e))

(* ---- aggregation ------------------------------------------------------ *)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let plain_trials rounds =
  List.concat_map (fun r -> if r.error = None then List.filter (fun t -> not t.traced) r.timed else []) rounds

let rate t = float_of_int t.ops /. (float_of_int t.elapsed_ns /. 1e9)

(* End-to-end: the least-disturbed untraced trial of any round — host
   interference only ever slows a trial down (see README) — and set-up
   and memory as medians over rounds.  Unlike the simulator, the native
   pipeline is not referred to the host speed probe: it runs on two CPUs,
   and a probe next to either one did not track it. *)
let end_to_end rounds =
  let ok = List.filter (fun r -> r.error = None) rounds in
  let trials f = List.map f (plain_trials rounds) in
  [
    ("ops_per_s", Samples.maximum (trials rate));
    ("p50_us", Samples.minimum (trials (fun t -> Samples.percentile t.lat_us 50.0)));
    ("cpu_ns_per_op", Samples.minimum (trials (fun t -> Samples.ratio t.server_cpu_ns t.ops)));
    ("rss_mb", Samples.median (List.map (fun r -> r.rss_mb) ok));
    ("setup_s", Samples.median (List.map (fun r -> r.setup_s) ok));
  ]

let summary_total rounds name =
  List.fold_left
    (fun acc r -> acc +. Option.value ~default:0.0 (List.assoc_opt name r.summary))
    0.0 rounds

(* Per-layer numbers of a traced run; [server.residual_us] is completed
   by the caller, which holds the Resp and execution micros. *)
let per_layer rounds =
  let ok = List.filter (fun r -> r.error = None) rounds in
  let trials = List.concat_map (fun r -> r.timed) ok in
  let traced = List.filter (fun t -> t.traced) trials in
  let plain = List.filter (fun t -> not t.traced) trials in
  let traced_ops = sum (fun t -> t.ops) traced in
  let timed_ops = sum (fun t -> t.ops) trials in
  let usage f = sum (fun r -> f r.usage) ok in
  let median_rate ts = Samples.median (List.map rate ts) in
  let responded = summary_total ok "responded" in
  let frac name = if responded = 0.0 then 0.0 else summary_total ok name /. responded in
  [
    ("client.write_us", Samples.ratio (sum (fun t -> t.write_ns) traced) traced_ops /. 1e3);
    ("client.wait_us", Samples.ratio (sum (fun t -> t.wait_ns) traced) traced_ops /. 1e3);
    ("client.parse_ns", Samples.ratio (sum (fun t -> t.parse_ns) traced) traced_ops);
    ("server.read_syscalls_per_op", Samples.ratio (usage (fun u -> u.Host.read_calls)) timed_ops);
    ("server.write_syscalls_per_op", Samples.ratio (usage (fun u -> u.Host.write_calls)) timed_ops);
    ( "server.sys_cpu_frac",
      Samples.ratio (usage (fun u -> u.Host.sys_ticks))
        (usage (fun u -> u.Host.user_ticks + u.Host.sys_ticks)) );
    ( "server.involuntary_cs_per_s",
      float_of_int (usage (fun u -> u.Host.preempted))
      /. (float_of_int (sum (fun r -> r.timed_ns) ok) /. 1e9) );
    ("split.cr_hit_rate", frac "cr_hits");
    ("split.forward_frac", frac "forwarded");
    ("sched.steals", summary_total ok "steals");
    ("latency.p99_us", Samples.median (List.map (fun t -> Samples.percentile t.lat_us 99.0) plain));
    ("trace.overhead_frac", 1.0 -. (median_rate traced /. median_rate plain));
  ]

(* ---- Chrome trace of the kept client spans ----------------------------- *)

let write_spans path (k : spans) =
  let n = Samples.length k.start in
  let t0 = if n = 0 then 0 else Samples.get k.start 0 in
  let us v = float_of_int (v - t0) /. 1e3 in
  let b = Buffer.create (n * 400) in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let slice ~i ~name ~from ~until =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Printf.bprintf b
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d}}"
      name (Samples.get k.round i) (Samples.get k.conn i) (us from) (us until -. us from) i
  in
  for i = 0 to n - 1 do
    let at v = Samples.get v i in
    slice ~i ~name:"request" ~from:(at k.start) ~until:(at k.parsed);
    slice ~i ~name:"write" ~from:(at k.start) ~until:(at k.written);
    slice ~i ~name:"wait" ~from:(at k.written) ~until:(at k.ready);
    slice ~i ~name:"parse" ~from:(at k.ready) ~until:(at k.parsed)
  done;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)
