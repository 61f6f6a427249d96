(* mutps-cli: run the paper's experiments or an ad-hoc server measurement
   from the command line. *)

open Cmdliner
open Mutps_experiments

(* --sanitize: run under the simulated-time race sanitizer (lib/san),
   print findings to stderr, exit non-zero if any.  3-5x slower. *)
let sanitize_term =
  let doc =
    "Attach the happens-before race sanitizer to every simulated engine; \
     report data races and lockset violations on stderr and fail if any \
     are found (3-5x slower)."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let with_sanitizer sanitize f =
  if not sanitize then f ()
  else begin
    let (), reports = Mutps_san.San.sanitized f in
    List.iter
      (fun r -> Printf.eprintf "sanitizer: %s\n%!" (Mutps_san.San.report_to_string r))
      reports;
    match reports with
    | [] -> Printf.eprintf "sanitizer: no races detected\n%!"
    | _ :: _ ->
      Printf.eprintf "sanitizer: %d finding(s)\n%!" (List.length reports);
      exit 3
  end

(* --trace/--metrics/--profile: the observability layer (lib/trace).
   Installs a metrics registry plus a per-engine trace collector around the
   run, then writes the requested artifacts. *)
let obs_term =
  let trace =
    let doc =
      "Write a Chrome/Perfetto trace-event JSON of the run to $(docv): one \
       process per simulated engine, one slice track per simulated thread, \
       plus counter tracks sampled from the metrics registry.  Open it in \
       ui.perfetto.dev."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc =
      "Dump the metrics registry (per-subsystem counters and gauges, read \
       at end of run) to $(docv): CSV, or JSON when the name ends in .json."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let profile =
    let doc =
      "Write a collapsed-stack cycle profile (charged simulated cycles \
       aggregated by thread and site) to $(docv); feed it to flamegraph.pl \
       or speedscope."
    in
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
  in
  let max_events =
    let doc =
      "Per-engine event cap for $(b,--trace) (experiments that build many \
       systems hold every engine's events until exit; lower this to bound \
       memory and trace size).  The profile and metrics are never truncated."
    in
    Arg.(value & opt int 2_000_000
         & info [ "trace-max-events" ] ~docv:"N" ~doc)
  in
  let combine trace metrics profile max_events =
    (trace, metrics, profile, max_events)
  in
  Term.(const combine $ trace $ metrics $ profile $ max_events)

let with_observability (trace, metrics, profile, max_events) f =
  if trace = None && metrics = None && profile = None then f ()
  else begin
    let module T = Mutps_trace in
    let reg = T.Metrics.create () in
    T.Metrics.set_current (Some reg);
    Fun.protect ~finally:(fun () -> T.Metrics.set_current None) @@ fun () ->
    (* with no event consumer, keep only the per-site cycle aggregates *)
    let keep_events = trace <> None in
    let (), collectors = T.Trace.traced ~keep_events ~max_events f in
    (match trace with
    | Some path ->
      T.Perfetto.write_file path collectors;
      let events =
        List.fold_left
          (fun acc c ->
            acc + T.Trace.slice_count c + T.Trace.instant_count c
            + T.Trace.counter_count c)
          0 collectors
      in
      Printf.eprintf "trace: %d event(s) from %d engine(s) -> %s\n%!" events
        (List.length collectors) path;
      let dropped =
        List.fold_left (fun acc c -> acc + T.Trace.dropped c) 0 collectors
      in
      if dropped > 0 then
        Printf.eprintf
          "trace: %d further event(s) past the per-engine cap were dropped \
           (shorter --measure-ms or higher --trace-max-events for a \
           complete trace)\n%!"
          dropped
    | None -> ());
    (match metrics with
    | Some path ->
      T.Metrics.write_file reg path;
      Printf.eprintf "metrics: %d source(s) -> %s\n%!" (T.Metrics.size reg)
        path
    | None -> ());
    match profile with
    | Some path ->
      T.Profile.write_file path collectors;
      Printf.eprintf "profile: %d cycle(s) attributed -> %s\n%!"
        (T.Profile.total collectors) path
    | None -> ()
  end

(* Flags left unset take their values from MUTPS_BENCH_SCALE's scale
   (Harness.scale_from_env); an explicit flag wins. *)
let scale_term =
  let keyspace =
    let doc =
      "Pre-populated keys (paper: 10M); the default scales with \
       $(b,MUTPS_BENCH_SCALE)."
    in
    Arg.(value & opt (some' ~none:Harness.default_scale.Harness.keyspace int) None
         & info [ "keyspace" ] ~doc)
  in
  let cores =
    let doc = "Worker cores (paper: 28)." in
    Arg.(value & opt int Harness.default_scale.Harness.cores & info [ "cores" ] ~doc)
  in
  let clients =
    let doc =
      "Closed-loop client threads; the default scales with \
       $(b,MUTPS_BENCH_SCALE)."
    in
    Arg.(value & opt (some' ~none:Harness.default_scale.Harness.clients int) None
         & info [ "clients" ] ~doc)
  in
  let window =
    let doc = "Outstanding requests per client." in
    Arg.(value & opt int Harness.default_scale.Harness.window & info [ "window" ] ~doc)
  in
  let measure_ms =
    let doc =
      "Measured simulated milliseconds, after a warmup 0.4 times as long; \
       the default scales with $(b,MUTPS_BENCH_SCALE)."
    in
    Arg.(value & opt (some' ~none:10.0 float) None & info [ "measure-ms" ] ~doc)
  in
  let sample =
    let doc =
      "Interval sampling (SimPoint-style): simulate a truncated set of \
       fixed-length intervals, fast-forward the rest under functional \
       warming, and reconstruct full-run estimates with per-metric error \
       bounds ($(i,*_err) metrics in the rows).  $(docv) is \
       $(i,K)[,$(i,INTERVAL)] — phase count and interval length in \
       simulated cycles; bare $(b,--sample) uses the defaults."
    in
    Arg.(value & opt ~vopt:(Some "") (some string) None
         & info [ "sample" ] ~docv:"SPEC" ~doc)
  in
  let combine keyspace cores clients window measure_ms sample =
    let base =
      match Harness.scale_from_env () with
      | Ok scale -> scale
      | Error msg ->
        prerr_endline msg;
        exit 1
    in
    let sample =
      match sample with
      | None -> None
      | Some spec -> (
        match Mutps_sample.Sample.parse spec with
        | Ok cfg -> Some cfg
        | Error msg ->
          Printf.eprintf "--sample: %s\n%!" msg;
          exit 1)
    in
    let warmup, measure =
      match measure_ms with
      | None -> (base.Harness.warmup, base.Harness.measure)
      | Some ms ->
        ( int_of_float (0.4 *. ms *. 2_500_000.0),
          int_of_float (ms *. 2_500_000.0) )
    in
    {
      Harness.keyspace = Option.value keyspace ~default:base.Harness.keyspace;
      cores;
      clients = Option.value clients ~default:base.Harness.clients;
      window;
      warmup;
      measure;
      sample;
    }
  in
  Term.(
    const combine $ keyspace $ cores $ clients $ window $ measure_ms $ sample)

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun e -> Printf.printf "%-8s %s\n" e.Registry.name e.Registry.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments")
    Term.(const run $ const ())

(* --- run --- *)

let run_cmd =
  let names =
    let doc = "Experiments to run (see $(b,list)); 'all' runs everything." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let jobs =
    let doc =
      "Worker domains for the experiment fan-out (experiments are \
       independent simulations; results are identical for any job \
       count).  Defaults to the machine's recommended domain count."
    in
    Arg.(value & opt int (Runner.default_jobs ())
         & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let json =
    let doc =
      "Write every experiment datapoint to $(docv) as canonical JSON \
       (sorted keys, fixed float formatting; bit-reproducible for a \
       given build and scale — see $(b,bench-compare))."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let json_dir =
    let doc =
      "Also write each experiment's rows to $(docv)/BENCH_$(i,NAME).json, \
       creating $(docv) if needed."
    in
    Arg.(value & opt (some string) None
         & info [ "json-dir" ] ~docv:"DIR" ~doc)
  in
  let run scale sanitize obs jobs json json_dir names =
    let names =
      if List.mem "all" names then Registry.names () else names
    in
    (match List.filter (fun n -> Registry.find n = None) names with
    | [] -> ()
    | unknown ->
      Printf.eprintf "unknown experiment(s): %s (try 'list')\n%!"
        (String.concat ", " unknown);
      exit 1);
    with_sanitizer sanitize @@ fun () ->
    with_observability obs @@ fun () ->
    let outcomes =
      Runner.run_all ~jobs
        ~on_done:(fun o ->
          Printf.eprintf "[%s %s in %.1fs cpu]\n%!" o.Runner.name
            (if o.Runner.error = None then "done" else "FAILED")
            o.Runner.cpu_s)
        names scale
    in
    List.iter
      (fun (o : Runner.outcome) ->
        print_string o.Runner.output;
        match o.Runner.error with
        | None -> ()
        | Some msg -> Printf.printf "[%s FAILED: %s]\n%!" o.Runner.name msg)
      outcomes;
    (match json_dir with
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (o : Runner.outcome) ->
          Report.write_file
            (Filename.concat dir ("BENCH_" ^ o.Runner.name ^ ".json"))
            o.Runner.rows)
        outcomes;
      Printf.eprintf "json: per-experiment files -> %s/BENCH_*.json\n%!" dir
    | None -> ());
    (match json with
    | Some path ->
      Report.write_file path (Runner.rows outcomes);
      Printf.eprintf "json: %d row(s) -> %s\n%!"
        (List.length (Runner.rows outcomes))
        path
    | None -> ());
    match Runner.failed outcomes with
    | [] -> ()
    | failed ->
      Printf.eprintf "%d experiment(s) failed\n%!" (List.length failed);
      exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Reproduce one or more of the paper's tables/figures")
    Term.(
      const run $ scale_term $ sanitize_term $ obs_term $ jobs $ json
      $ json_dir $ names)

(* --- bench-compare: the regression gate over canonical result files --- *)

let load_rows path =
  try Report.read_file path
  with
  | Report.Parse_error msg ->
    Printf.eprintf "%s: parse error: %s\n%!" path msg;
    exit 2
  | Sys_error msg ->
    Printf.eprintf "%s\n%!" msg;
    exit 2

let bench_compare_cmd =
  let baseline =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc:"Baseline canonical JSON result file.")
  in
  let current =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CURRENT" ~doc:"Current canonical JSON result file.")
  in
  let tolerance =
    let doc =
      "Allowed relative drift per metric.  The default 0 demands exact \
       equality of canonical values — sound because the DES is \
       deterministic, so any difference is a real behavioral change."
    in
    Arg.(value & opt float 0.0 & info [ "tolerance" ] ~docv:"FRAC" ~doc)
  in
  let run baseline current tolerance =
    let b = load_rows baseline and c = load_rows current in
    match Report.diff ~tolerance ~baseline:b ~current:c () with
    | [] ->
      Printf.printf "bench-compare: %d row(s) match (tolerance %g)\n%!"
        (List.length b) tolerance
    | drifts ->
      List.iter
        (fun d -> Printf.printf "drift: %s\n" (Report.drift_to_string d))
        drifts;
      Printf.printf "bench-compare: %d drift(s) across %d baseline row(s)\n%!"
        (List.length drifts) (List.length b);
      exit 4
  in
  Cmd.v
    (Cmd.info "bench-compare"
       ~doc:
         "Diff two canonical JSON result files; exit non-zero on any drift \
          (the CI bench-regression gate)")
    Term.(const run $ baseline $ current $ tolerance)

(* --- engine-micro: the engine gates and the trajectory's perf rows --- *)

(* runs the micros, printing every row; returns (gate, perf) per case *)
let run_engine_micro () =
  print_endline "=== Engine micro-benchmark (mutps.alloc trajectory) ===";
  let cases = Engine_micro.run () in
  List.iter
    (fun (gate, perf) ->
      List.iter
        (fun (r : Report.row) ->
          Printf.printf "%-22s" (List.assoc "case" r.Report.axis);
          List.iter
            (fun (k, v) -> Printf.printf "  %s=%s" k (Report.float_to_string v))
            r.Report.metrics;
          print_newline ())
        [ gate; perf ])
    cases;
  cases

let engine_micro_cmd =
  let json =
    let doc =
      "Write the gate rows to $(docv): events, simulated cycles or \
       completed requests, and GC words per event, all pure functions of \
       the code (compare with $(b,bench-compare) against \
       test/golden/engine_gate.json)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run json =
    let gate = List.map fst (run_engine_micro ()) in
    match json with
    | Some path ->
      Report.write_file path gate;
      Printf.eprintf "json: %d gate row(s) -> %s\n%!" (List.length gate) path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "engine-micro"
       ~doc:
         "Run the engine micro-benchmarks: scheduler churn, the \
          scheduler's near/far mix and the fig2a hot loop, at a fixed \
          scale")
    Term.(const run $ json)

(* --- trajectory: append-only perf history + one-sided regression gate --- *)

(* BENCH_trajectory.json is a canonical Report document accumulated across
   changes: every [append] adds one entry (a row per engine-micro case carrying
   events_per_sec and sim_cycles_per_wall_second), and [check] diffs the
   current perf rows against the latest entry with a one-sided tolerance —
   wall-clock noise within the band and improvements of any size pass. *)

let traj_row ?entry (perf : Report.row) =
  let axis =
    match entry with
    | None -> perf.Report.axis
    | Some n -> ("entry", Printf.sprintf "%04d" n) :: perf.Report.axis
  in
  Report.row ~experiment:"trajectory" ~system:perf.Report.system ~axis
    [
      ("events_per_sec", Report.metric_exn perf "events_per_sec");
      ( "sim_cycles_per_wall_second",
        Report.metric_exn perf "sim_cycles_per_sec" );
    ]

let traj_entries rows =
  List.filter_map
    (fun (r : Report.row) ->
      match List.assoc_opt "entry" r.Report.axis with
      | Some e -> int_of_string_opt e
      | None -> None)
    rows

let trajectory_cmd =
  let action =
    Arg.(required & pos 0 (some (enum [ ("append", `Append); ("check", `Check) ])) None
         & info [] ~docv:"ACTION"
             ~doc:"$(b,append) runs the engine micros and records their \
                   perf rows as a new entry; $(b,check) runs them and \
                   gates the rows against the latest entry.")
  in
  let file =
    Arg.(value & opt string "BENCH_trajectory.json"
         & info [ "file" ] ~docv:"FILE"
             ~doc:"Append-only trajectory document (committed to the repo).")
  in
  let tolerance =
    Arg.(value & opt float 0.25
         & info [ "tolerance" ] ~docv:"FRAC"
             ~doc:"Allowed one-sided wall-clock regression; improvements \
                   always pass.")
  in
  let run action file tolerance =
    let history = if Sys.file_exists file then load_rows file else [] in
    let last = List.fold_left max (-1) (traj_entries history) in
    let perf = List.map snd (run_engine_micro ()) in
    match action with
    | `Append ->
      let entry = last + 1 in
      let rows = history @ List.map (traj_row ~entry) perf in
      Report.write_file file rows;
      Printf.printf "trajectory: entry %04d (%d case(s)) -> %s\n%!" entry
        (List.length perf) file
    | `Check ->
      if last < 0 then begin
        Printf.printf
          "trajectory: %s has no entries yet; nothing to gate against\n%!" file;
        exit 0
      end;
      let baseline =
        List.filter_map
          (fun (r : Report.row) ->
            if List.assoc_opt "entry" r.Report.axis
               = Some (Printf.sprintf "%04d" last)
            then
              Some
                (Report.row ~experiment:"trajectory" ~system:r.Report.system
                   ~axis:(List.remove_assoc "entry" r.Report.axis)
                   r.Report.metrics)
            else None)
          history
      in
      let current = List.map (fun r -> traj_row r) perf in
      (match Report.diff ~one_sided:true ~tolerance ~baseline ~current () with
      | [] ->
        Printf.printf
          "trajectory: current perf within %.0f%% of entry %04d (%d case(s))\n%!"
          (100.0 *. tolerance) last (List.length baseline)
      | drifts ->
        List.iter
          (fun d -> Printf.printf "regression: %s\n" (Report.drift_to_string d))
          drifts;
        Printf.printf
          "trajectory: %d regression(s) vs entry %04d (tolerance %.0f%%)\n%!"
          (List.length drifts) last (100.0 *. tolerance);
        exit 4)
  in
  Cmd.v
    (Cmd.info "trajectory"
       ~doc:
         "Append-only perf history: record the engine micros' wall-clock \
          rates per change and fail on a >tolerance one-sided regression (the \
          CI perf-trajectory gate, separate from the bit-exact gate)")
    Term.(const run $ action $ file $ tolerance)

(* --- serve: one ad-hoc measurement (simulated or native) --- *)

(* Explicit name validation (instead of Arg.enum) so an unknown system or
   backend exits non-zero with a one-line diagnostic naming the
   alternatives, rather than cmdliner's generic usage dump. *)
let parse_system s =
  match String.lowercase_ascii s with
  | "mutps" | "utps" -> Some Harness.Mutps
  | "basekv" -> Some Harness.Basekv
  | "erpckv" -> Some Harness.Erpckv
  | _ -> None

let system_or_die s =
  match parse_system s with
  | Some sys -> sys
  | None ->
    Printf.eprintf
      "serve: unknown system '%s' (expected mutps, basekv, or erpckv)\n%!" s;
    exit 1

let backend_or_die s =
  match String.lowercase_ascii s with
  | "sim" -> `Sim
  | "native" -> `Native
  | _ ->
    Printf.eprintf "serve: unknown backend '%s' (expected sim or native)\n%!" s;
    exit 1

let host_port_or_die ~what s =
  match String.rindex_opt s ':' with
  | None ->
    Printf.eprintf "%s: expected HOST:PORT, got '%s'\n%!" what s;
    exit 1
  | Some i -> (
    let host = String.sub s 0 i in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some port when port > 0 && port < 65536 -> (host, port)
    | _ ->
      Printf.eprintf "%s: bad port in '%s'\n%!" what s;
      exit 1)

let listen_of ~what ~unix_path ~tcp =
  match tcp with
  | Some hp ->
    let host, port = host_port_or_die ~what hp in
    Mutps_native.Server.Tcp (host, port)
  | None -> Mutps_native.Server.Unix_path unix_path

(* Native-server knobs, shared between serve and loadgen where sensible. *)
let native_term =
  let listen =
    Arg.(value & opt string "/tmp/mutps.sock"
         & info [ "listen" ] ~docv:"PATH"
             ~doc:"Unix-domain socket path (native backend).")
  in
  let listen_tcp =
    Arg.(value & opt (some string) None
         & info [ "listen-tcp" ] ~docv:"HOST:PORT"
             ~doc:"Listen on TCP instead of a Unix socket (native backend).")
  in
  let domains =
    Arg.(value & opt int 0
         & info [ "domains" ] ~docv:"N"
             ~doc:"Scheduler worker domains (native backend); 0 picks a \
                   count matched to the machine's cores.")
  in
  let shards =
    Arg.(value & opt int 2
         & info [ "shards" ] ~docv:"N"
             ~doc:"Share-nothing backend shards (native backend).")
  in
  let duration_s =
    Arg.(value & opt (some float) None
         & info [ "duration-s" ] ~docv:"SECONDS"
             ~doc:"Stop the native server after this long (default: serve \
                   until killed).")
  in
  let hot_cap =
    Arg.(value & opt int 1024
         & info [ "hot-cap" ] ~docv:"N"
             ~doc:"CR hot-cache capacity per shard (native uTPS split).")
  in
  let combine listen listen_tcp domains shards duration_s hot_cap =
    (listen, listen_tcp, domains, shards, duration_s, hot_cap)
  in
  Term.(
    const combine $ listen $ listen_tcp $ domains $ shards $ duration_s
    $ hot_cap)

let serve_native scale system value_size
    (listen, listen_tcp, domains, shards, duration_s, hot_cap) =
  let module Server = Mutps_native.Server in
  let mode =
    match system with
    | Harness.Mutps -> Server.Split
    | Harness.Basekv -> Server.Rtc_pool Mutps_kvs.Exec.Locked
    | Harness.Erpckv -> Server.Rtc_pool Mutps_kvs.Exec.Exclusive
  in
  let domains =
    if domains > 0 then domains
    else max 1 (min 3 (Domain.recommended_domain_count ()))
  in
  let cfg =
    {
      Server.mode;
      listen = listen_of ~what:"serve" ~unix_path:listen ~tcp:listen_tcp;
      domains;
      shards;
      keyspace = scale.Harness.keyspace;
      value_size;
      hot_cap;
      duration_s;
      (* through the Harness sink: on this control domain it reaches
         stdout directly, while a capturing runner sees it in-buffer *)
      log = (fun s -> Harness.printf "%s\n" s);
    }
  in
  let s = Server.run cfg in
  Harness.printf
    "native %s done: %d responded (%d CR hits, %d forwarded, %d MR ops), \
     %d conns, %d steals\n"
    (Harness.system_name system) s.Server.responded s.Server.cr_hits
    s.Server.forwarded s.Server.mr_ops s.Server.conns s.Server.steals

let serve_cmd =
  let system =
    Arg.(value & opt string "mutps"
         & info [ "system" ] ~doc:"System to run: mutps, basekv, or erpckv.")
  in
  let backend =
    Arg.(value & opt string "sim"
         & info [ "backend" ]
             ~doc:"$(b,sim) runs one simulated measurement; $(b,native) \
                   serves the RESP-like protocol on a real socket with the \
                   effect-fiber runtime.")
  in
  let index =
    let index_conv =
      Arg.enum [ ("tree", Mutps_kvs.Config.Tree); ("hash", Mutps_kvs.Config.Hash) ]
    in
    Arg.(value & opt index_conv Mutps_kvs.Config.Tree & info [ "index" ] ~doc:"Index structure.")
  in
  let value_size =
    Arg.(value & opt int 64 & info [ "value-size" ] ~doc:"Value bytes.")
  in
  let theta =
    Arg.(value & opt float 0.99 & info [ "theta" ] ~doc:"Zipfian theta (0 = uniform).")
  in
  let get_ratio =
    Arg.(value & opt float 0.5 & info [ "get-ratio" ] ~doc:"Fraction of gets.")
  in
  let dlb =
    Arg.(value & flag & info [ "dlb" ] ~doc:"Offload the CR-MR queue to a DLB-style hardware queue (uTPS only).")
  in
  let run scale sanitize obs system backend native index value_size theta
      get_ratio dlb =
    let system = system_or_die system in
    match backend_or_die backend with
    | `Native -> serve_native scale system value_size native
    | `Sim ->
    with_sanitizer sanitize @@ fun () ->
    with_observability obs @@ fun () ->
    let spec =
      {
        Mutps_workload.Opgen.name = "custom";
        keyspace = scale.Harness.keyspace;
        key_dist =
          (if theta < 0.01 then Mutps_workload.Opgen.Uniform
           else Mutps_workload.Opgen.Zipfian theta);
        size_dist = Mutps_workload.Opgen.Fixed value_size;
        mix = { Mutps_workload.Opgen.get = get_ratio; put = 1.0 -. get_ratio; scan = 0.0 };
        scan_len = 1;
      }
    in
    let tweak c = { c with Mutps_kvs.Config.dlb } in
    let m = Harness.measure ~index ~tweak system scale spec in
    Printf.printf
      "%s (%s index): %.2f Mops, P50 %.2f us, P99 %.2f us, %d ops, CR hit rate %.1f%%\n"
      (Harness.system_name system)
      (match index with Mutps_kvs.Config.Tree -> "tree" | Mutps_kvs.Config.Hash -> "hash")
      m.Harness.mops m.Harness.p50_us m.Harness.p99_us m.Harness.completed
      (100.0 *. m.Harness.cr_hit_rate)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run one system under a custom workload (simulated), or serve it \
          for real over a socket ($(b,--backend native))")
    Term.(
      const run $ scale_term $ sanitize_term $ obs_term $ system $ backend
      $ native_term $ index $ value_size $ theta $ get_ratio $ dlb)

(* --- loadgen: closed-loop client for the native server --- *)

let loadgen_cmd =
  let connect =
    Arg.(value & opt string "/tmp/mutps.sock"
         & info [ "connect" ] ~docv:"PATH"
             ~doc:"Unix-domain socket of the native server.")
  in
  let tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"Connect over TCP instead of a Unix socket.")
  in
  let conns =
    Arg.(value & opt int 8
         & info [ "conns" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let ops =
    Arg.(value & opt int 100_000
         & info [ "ops" ] ~docv:"N" ~doc:"Total operations to complete.")
  in
  let keyspace =
    Arg.(value & opt int 10_000
         & info [ "keyspace" ] ~docv:"N" ~doc:"Keys drawn from [0, N).")
  in
  let value_size =
    Arg.(value & opt int 64 & info [ "value-size" ] ~doc:"Put value bytes.")
  in
  let theta =
    Arg.(value & opt float 0.99
         & info [ "theta" ] ~doc:"Zipfian theta (0 = uniform).")
  in
  let get_ratio =
    Arg.(value & opt float 0.9 & info [ "get-ratio" ] ~doc:"Fraction of gets.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Op-stream seed.")
  in
  let run connect tcp conns ops keyspace value_size theta get_ratio seed =
    let module Loadgen = Mutps_native.Loadgen in
    let spec =
      {
        Mutps_workload.Opgen.name = "loadgen";
        keyspace;
        key_dist =
          (if theta < 0.01 then Mutps_workload.Opgen.Uniform
           else Mutps_workload.Opgen.Zipfian theta);
        size_dist = Mutps_workload.Opgen.Fixed value_size;
        mix =
          { Mutps_workload.Opgen.get = get_ratio;
            put = 1.0 -. get_ratio;
            scan = 0.0 };
        scan_len = 1;
      }
    in
    let cfg =
      {
        Loadgen.connect =
          listen_of ~what:"loadgen" ~unix_path:connect ~tcp;
        conns;
        ops;
        spec;
        seed;
      }
    in
    match Loadgen.run cfg with
    | r ->
      let gets = r.Loadgen.get_hits + r.Loadgen.get_misses in
      Printf.printf
        "loadgen: %d ops in %.3f s = %.0f ops/s, P50 %.1f us, P99 %.1f us, \
         %d errors, %d wrong, GET hit rate %.1f%%\n%!"
        r.Loadgen.completed
        (float_of_int r.Loadgen.elapsed_ns /. 1e9)
        (Loadgen.ops_per_s r)
        (Loadgen.percentile_us r 50.0)
        (Loadgen.percentile_us r 99.0)
        r.Loadgen.errors r.Loadgen.wrong
        (100.0 *. float_of_int r.Loadgen.get_hits
        /. float_of_int (max 1 gets));
      if r.Loadgen.errors > 0 || r.Loadgen.wrong > 0 then exit 5
    | exception Loadgen.Protocol_error msg ->
      Printf.eprintf "loadgen: protocol error: %s\n%!" msg;
      exit 5
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "loadgen: %s(%s): %s\n%!" fn arg (Unix.error_message e);
      exit 5
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running native server with closed-loop connections")
    Term.(
      const run $ connect $ tcp $ conns $ ops $ keyspace $ value_size $ theta
      $ get_ratio $ seed)

let () =
  let info =
    Cmd.info "mutps-cli" ~version:"1.0.0"
      ~doc:"uTPS reproduction: simulated in-memory KVS experiments"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; serve_cmd; loadgen_cmd; bench_compare_cmd;
            engine_micro_cmd; trajectory_cmd;
          ]))
