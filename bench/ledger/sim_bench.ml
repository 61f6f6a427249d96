(* Simulated workloads: one μTPS datapoint per child process, so heap
   state and peak RSS never leak from one datapoint into the next.  The
   child builds the system through the harness, starts its own seeded
   clients, checks every GET reply and reports in metric lines. *)

module H = Mutps_experiments.Harness
module Engine = Mutps_sim.Engine
module Client = Mutps_net.Client
module Transport = Mutps_net.Transport
module Message = Mutps_net.Message
module Request = Mutps_queue.Request
module Opgen = Mutps_workload.Opgen
module Metrics = Mutps_trace.Metrics
module Trace = Mutps_trace.Trace
module Mutps = Mutps_kvs.Mutps
module Clock = Mutps_native.Clock

(* The harness's default windows (4 ms warmup, 10 ms measured at
   2.5 GHz); the smoke run shrinks them to 0.2 ms + 1 ms. *)
let scale ~smoke =
  if smoke then { H.default_scale with H.warmup = 500_000; measure = 2_500_000 }
  else H.default_scale

(* Both windows run in slices of simulated time (the event order is the
   same as one uninterrupted run).  After each slice the host speed probe
   runs, so the slices' CPU time can be referred to the nominal host; the
   measured slices also pace the gauge averages. *)
let warm_slices = 4
let measure_slices = 10

let index_of (w : Spec.workload) =
  match w.Spec.system with
  | Spec.Sim index -> index
  | Spec.Native _ -> invalid_arg "Sim_bench: native workload"

(* Self cycles per Env site, keyed by the innermost site of each
   profiled stack ("thread;site;...") and folded onto the ledger's list. *)
let profile_by_site collectors =
  let site stack =
    match List.rev (String.split_on_char ';' stack) with
    | [] | [ _ ] -> "untagged"
    | leaf :: _ -> if List.mem leaf Spec.profile_sites then leaf else "other"
  in
  List.map
    (fun s ->
      ( s,
        List.fold_left
          (fun acc c ->
            List.fold_left
              (fun acc (stack, cycles) -> if site stack = s then acc + cycles else acc)
              acc (Trace.profile_entries c))
          0 collectors ))
    Spec.profile_sites

let registry_values reg =
  List.map
    (fun e -> (e.Metrics.subsystem ^ "." ^ e.Metrics.name, e.Metrics.read ()))
    (Metrics.entries reg)

(* The child: one datapoint, reported on stdout. *)
let datapoint (w : Spec.workload) ~seed ~traced ~smoke =
  let scale = scale ~smoke in
  let spec = Spec.opgen_spec w in
  let index = index_of w in
  let reg = Metrics.create () in
  if traced then Metrics.set_current (Some reg);
  let probe = Host.probe () in
  let probe_before = Host.probe_ns probe in
  let t_build = Clock.now_ns () in
  let built, collectors =
    if traced then Trace.traced ~keep_events:false (fun () -> H.build ~index H.Mutps scale spec)
    else (H.build ~index H.Mutps scale spec, [])
  in
  let setup_s = float_of_int (Clock.now_ns () - t_build) /. 1e9 in
  let setup_probe = (probe_before + Host.probe_ns probe) / 2 in
  Metrics.set_current None;
  let engine = built.H.engine in
  (* exact per-request latency, from the message's own send stamp *)
  let measuring = ref false in
  let lat = Samples.vec () in
  let tr = built.H.transport in
  let transport =
    {
      tr with
      Transport.set_on_response =
        (fun f ->
          tr.Transport.set_on_response (fun msg v ->
              if !measuring then Samples.push lat (Engine.now engine - msg.Message.sent_at);
              f msg v));
    }
  in
  let clients =
    Client.start ~engine ~link:built.H.link ~transport
      { Client.clients = scale.H.clients; window = scale.H.window; spec; seed; dispatch = built.H.dispatch }
  in
  let attempted = ref 0 and failed = ref 0 in
  Client.on_completion clients (fun op value ->
      incr attempted;
      match (op.Opgen.kind, value) with
      | Request.Get, Some v when Bytes.equal v (Client.payload ~key:op.Opgen.key ~size:Spec.value_size) -> ()
      | Request.Get, _ -> incr failed
      | (Request.Put | Request.Delete | Request.Scan), _ -> ());
  let slice k ~until =
    let c = Host.self_cpu_ns () in
    Engine.run engine ~until;
    Host.print_metric (Printf.sprintf "slice.%d" k) (float_of_int (Host.self_cpu_ns () - c));
    Host.print_metric (Printf.sprintf "probe.%d" k) (float_of_int (Host.probe_ns probe))
  in
  for k = 1 to warm_slices do
    slice (k - 1) ~until:(scale.H.warmup * k / warm_slices)
  done;
  Option.iter Mutps.refresh_now built.H.kv_mutps;
  let warm_ops = Client.completed clients in
  Client.reset_stats clients;
  let events0 = Engine.dispatched engine in
  let gc0 = Gc.quick_stat () in
  let reg0 = registry_values reg in
  let prof0 = profile_by_site collectors in
  let t0 = Engine.now engine in
  measuring := true;
  let in_flight = ref 0.0 in
  for k = 1 to measure_slices do
    slice (warm_slices + k - 1) ~until:(t0 + (scale.H.measure * k / measure_slices));
    in_flight := !in_flight +. Option.value ~default:0.0 (List.assoc_opt "crmr.in_flight" (registry_values reg))
  done;
  measuring := false;
  let gc1 = Gc.quick_stat () in
  let events = Engine.dispatched engine - events0 in
  let ops = Client.completed clients in
  let per_op v = v /. float_of_int (max 1 ops) in
  let ghz = H.ghz (H.mk_config ~index scale) in
  let lat = Samples.sorted lat in
  let us cycles = cycles /. ghz /. 1e3 in
  let out name v = Host.print_metric name v in
  out "ops_total" (float_of_int (warm_ops + ops));
  out "events" (float_of_int events);
  out "attempted" (float_of_int !attempted);
  out "failed" (float_of_int !failed);
  out "setup_s" setup_s;
  out "setup_probe" (float_of_int setup_probe);
  out "rss_mb" (Host.peak_rss_mb (Unix.getpid ()));
  out "ops_per_s" (float_of_int ops /. (float_of_int scale.H.measure /. (ghz *. 1e9)));
  out "p50_us" (us (Samples.percentile lat 50.0));
  out "p99_us" (us (Samples.percentile lat 99.0));
  out "engine.events_per_op" (per_op (float_of_int events));
  out "gc.minor_words_per_op" (per_op (gc1.Gc.minor_words -. gc0.Gc.minor_words));
  out "gc.major_words_per_op" (per_op (gc1.Gc.major_words -. gc0.Gc.major_words));
  if traced then begin
    let reg1 = registry_values reg in
    let delta name =
      Option.value ~default:0.0 (List.assoc_opt name reg1)
      -. Option.value ~default:0.0 (List.assoc_opt name reg0)
    in
    List.iter
      (fun (metric, source) -> out metric (per_op (delta source)))
      [
        ("hier.l1_hits_per_op", "hierarchy.l1_hits");
        ("hier.l2_hits_per_op", "hierarchy.l2_hits");
        ("hier.llc_hits_per_op", "hierarchy.llc_hits");
        ("hier.dram_fetches_per_op", "hierarchy.dram_fetches");
        ("hier.invalidations_per_op", "hierarchy.invalidations_sent");
        ("hier.dirty_transfers_per_op", "hierarchy.dirty_transfers");
        ("kvs.cr_hit_rate", "kvs.cr_hits");
        ("kvs.forward_frac", "kvs.forwarded");
      ];
    out "link.bytes_per_op" (per_op (delta "link.rx_bytes" +. delta "link.tx_bytes"));
    let misses = delta "nic.ddio_misses" in
    let dma = delta "nic.ddio_hits" +. misses in
    out "nic.ddio_miss_frac" (if dma = 0.0 then 0.0 else misses /. dma);
    let ncr = Option.value ~default:0.0 (List.assoc_opt "kvs.ncr" reg1) in
    let nmr = float_of_int scale.H.cores -. ncr in
    let window = float_of_int scale.H.measure in
    out "kvs.cr_busy_frac" (delta "kvs.cr_busy_cycles" /. (ncr *. window));
    out "kvs.mr_busy_frac" (delta "kvs.mr_busy_cycles" /. (nmr *. window));
    out "crmr.in_flight" (!in_flight /. float_of_int measure_slices);
    let prof1 = profile_by_site collectors in
    List.iter2
      (fun (site, c0) (_, c1) ->
        out (Printf.sprintf "profile.%s.cycles_per_op" site) (per_op (float_of_int (c1 - c0))))
      prof0 prof1
  end

(* The parent: run one datapoint in a pinned child and collect its lines. *)
let round (w : Spec.workload) ~self ~placement ~seed ~traced ~smoke =
  let argv =
    [ self; "sim"; "--workload"; w.Spec.name; "--seed"; string_of_int seed;
      "--traced"; (if traced then "1" else "0") ]
    @ if smoke then [ "--smoke" ] else []
  in
  match Host.finish (Host.spawn (Host.pinned placement argv)) with
  | lines, Unix.WEXITED 0 -> Ok (Host.metrics_of_lines lines)
  | _, _ -> Error "simulator child exited abnormally"

let get = Host.metric

(* Host CPU ns of a datapoint's work at nominal host speed: per op over
   both windows and per event over the measured one.  The work is the
   same in every round and interference only adds time, so the fastest
   datapoint stands. *)
let host_cost points =
  let at_nominal p ks =
    let sum prefix = List.fold_left (fun acc k -> acc +. get (Printf.sprintf "%s.%d" prefix k) p) 0.0 ks in
    sum "slice" /. Spec.slowdown ~probe_ns:(sum "probe" /. float_of_int (List.length ks))
  in
  let all = List.init (warm_slices + measure_slices) Fun.id in
  let measured = List.init measure_slices (fun i -> warm_slices + i) in
  ( Samples.minimum (List.map (fun p -> at_nominal p all /. get "ops_total" p) points),
    Samples.minimum (List.map (fun p -> at_nominal p measured /. get "events" p) points) )

(* Set-up seconds at nominal host speed, median over datapoints. *)
let setup_s points =
  Samples.median
    (List.map (fun p -> get "setup_s" p /. Spec.slowdown ~probe_ns:(get "setup_probe" p)) points)
