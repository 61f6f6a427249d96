(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (via Mutps_experiments.Runner, fanned out over domains) and
   then runs a Bechamel microbenchmark suite over the substrate hot paths.

   Usage:
     bench/main.exe                        run everything
     bench/main.exe fig7 fig12             run selected experiments
     bench/main.exe micro                  run only the microbenchmarks
     bench/main.exe --jobs 4 --json out.json fig2a fig12
   Flags:
     --jobs N       worker domains (default: Domain.recommended_domain_count)
     --json FILE    write all experiment rows as one canonical JSON document
     --json-dir DIR write DIR/BENCH_<name>.json per experiment
     --perf-json F  write the engine-micro wall-clock perf rows (the
                    mutps-cli trajectory input)
     --sample[=K[,INTERVAL]]  interval-sampled experiments: truncated
                    detailed simulation + functional warming, rows carry
                    *_err reconstruction bounds (paper-scale CI lane)
   Scale via MUTPS_BENCH_SCALE (e.g. 0.25 for a quick pass).  Exits
   non-zero if any experiment raises, so CI sees broken experiments. *)

open Mutps_experiments

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the substrate hot paths                 *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let microbenches () =
  let open Mutps_sim in
  let open Mutps_mem in
  (* cache hierarchy access *)
  let hier = Hierarchy.create (Hierarchy.default_geometry ~cores:4) in
  let rng = Rng.create 1 in
  let bench_hier =
    (* this microbenchmark measures the hierarchy model itself, so it may
       bypass Env's charge discipline *)
    Test.make ~name:"hierarchy.load (random 64MB)"
      (Staged.stage (fun () ->
           ignore
             ((Hierarchy.load hier ~core:0 ~addr:(Rng.int rng 67_108_864)
                 ~size:8) [@lint.allow "R2"])))
  in
  (* ring push/pop — run each iteration as a simulated thread, so the
     figure includes the simulator's own per-op engine overhead *)
  let layout = Layout.create () in
  let ring =
    Mutps_queue.Ring.create layout ~name:"bench" ~slots:64 ~batch:4
      ~value_bytes:16
  in
  let engine = Engine.create () in
  let in_sim f =
    Simthread.spawn engine (fun ctx -> f (Env.make ~ctx ~hier ~core:1));
    Engine.run_all engine
  in
  let batch = [| 1; 2; 3; 4 |] in
  let bench_ring =
    Test.make ~name:"ring push+peek+complete+reap (simulated)"
      (Staged.stage (fun () ->
           in_sim (fun env ->
               ignore (Mutps_queue.Ring.push ring env batch);
               ignore (Mutps_queue.Ring.peek ring env);
               Mutps_queue.Ring.complete ring env;
               ignore (Mutps_queue.Ring.take_completed ring env))))
  in
  (* index probes *)
  let layout2 = Layout.create () in
  let slab = Mutps_store.Slab.create layout2 () in
  let cuckoo = Mutps_index.Cuckoo.create layout2 ~capacity:100_000 ~seed:3 in
  let cuckoo_ops = Mutps_index.Cuckoo.ops cuckoo in
  let btree = Mutps_index.Btree.create layout2 ~seed:3 in
  let btree_ops = Mutps_index.Btree.ops btree in
  for k = 0 to 99_999 do
    let key = Int64.of_int k in
    let item = Mutps_store.Item.create slab ~value:(Bytes.make 8 'x') in
    cuckoo_ops.Mutps_index.Index_intf.insert_silent key item;
    btree_ops.Mutps_index.Index_intf.insert_silent key item
  done;
  let bench_cuckoo =
    Test.make ~name:"cuckoo.lookup (100K keys, simulated)"
      (Staged.stage (fun () ->
           in_sim (fun env ->
               ignore
                 (cuckoo_ops.Mutps_index.Index_intf.lookup env
                    (Int64.of_int (Rng.int rng 100_000))))))
  in
  let bench_btree =
    Test.make ~name:"btree.lookup (100K keys, simulated)"
      (Staged.stage (fun () ->
           in_sim (fun env ->
               ignore
                 (btree_ops.Mutps_index.Index_intf.lookup env
                    (Int64.of_int (Rng.int rng 100_000))))))
  in
  (* workload generation *)
  let zipf = Mutps_workload.Zipf.create ~n:1_000_000 ~theta:0.99 in
  let bench_zipf =
    Test.make ~name:"zipf.next (1M ranks)"
      (Staged.stage (fun () -> ignore (Mutps_workload.Zipf.next zipf rng)))
  in
  let hist = Stats.Hist.create () in
  let bench_hist =
    Test.make ~name:"hist.add"
      (Staged.stage (fun () -> Stats.Hist.add hist (Rng.int rng 1_000_000)))
  in
  let engine_bench = Engine.create () in
  let bench_engine =
    Test.make ~name:"engine schedule+dispatch"
      (Staged.stage (fun () ->
           Engine.schedule_after engine_bench ~delay:1 ignore;
           Engine.run engine_bench ~until:(Engine.now engine_bench + 2)))
  in
  (* observability overhead: the same tagged slice dispatch with no tracer
     (the zero-cost-when-off claim), with a profile-only collector, and
     with a full event collector.  Each variant owns its engine so tracer
     state never leaks between them. *)
  let slice_dispatch ~name mk_engine =
    let engine = mk_engine () in
    Test.make ~name
      (Staged.stage (fun () ->
           Simthread.spawn engine (fun ctx ->
               let env = Env.make ~ctx ~hier ~core:2 in
               Env.tagged env "bench" (fun () ->
                   Env.compute env 10;
                   ignore
                     ((Hierarchy.load hier ~core:2 ~addr:64 ~size:8)
                     [@lint.allow "R2"]));
               Env.commit env);
           Engine.run_all engine))
  in
  let bench_trace_off =
    slice_dispatch ~name:"env slice dispatch (trace off)" Engine.create
  in
  let bench_trace_profile =
    slice_dispatch ~name:"env slice dispatch (profile-only tracer)"
      (fun () ->
        let engine = Engine.create () in
        ignore (Mutps_trace.Trace.install ~keep_events:false engine);
        engine)
  in
  let bench_trace_full =
    slice_dispatch ~name:"env slice dispatch (full tracer)" (fun () ->
        let engine = Engine.create () in
        (* cap keeps a long benchmark run from growing without bound; past
           the cap the hooks still run their full bookkeeping *)
        ignore (Mutps_trace.Trace.install ~max_events:1_000_000 engine);
        engine)
  in
  Test.make_grouped ~name:"substrate"
    [
      bench_hier; bench_ring; bench_cuckoo; bench_btree; bench_zipf;
      bench_hist; bench_engine; bench_trace_off; bench_trace_profile;
      bench_trace_full;
    ]

let run_micro () =
  print_endline "\n=== Substrate microbenchmarks (Bechamel) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (microbenches ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  (* print in sorted order so runs are comparable line by line *)
  Hashtbl.to_seq results |> List.of_seq
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some [ est ] -> Printf.printf "%-40s %10.1f ns/run\n%!" name est
         | _ -> Printf.printf "%-40s (no estimate)\n%!" name)

(* ------------------------------------------------------------------ *)
(* Engine micro-benchmark: scheduler churn + the fig2a hot loop        *)
(*                                                                     *)
(* Reports the two numbers the mutps.alloc certifier exists to drive:  *)
(*   sim_cycles_per_sec    simulated cycles retired per CPU second     *)
(*   minor_words_per_event GC words allocated per dispatched event     *)
(* The words-per-event metrics are deterministic (same binary, same    *)
(* allocations), so they gate in CI against test/golden/               *)
(* engine_alloc_gate.json; the wall-clock rates are reported but not   *)
(* gated.                                                              *)
(* ------------------------------------------------------------------ *)

(* CPU seconds: the engine loop is single-threaded, so CPU time is the
   wall time of interest and is less noisy under CI co-tenancy *)
let cpu_time () = (Sys.time () [@lint.allow "R1"])

(* [Gc.minor_words] counts the live minor heap too; OCaml 5.1's
   [quick_stat] field only counts it at each minor collection, so that
   figure moved by whole minor heaps with GC pacing ([OCAMLRUNPARAM=o]).
   Direct major allocations are left out for the same reason: their
   share still moved with pacing. *)
let gc_words () = Gc.minor_words ()

(* words-per-event rounded to two places, as the goldens store it *)
let round2 x = Float.round (x *. 100.) /. 100.

(* Scheduler churn: a standing population of self-rescheduling events.
   One closure is allocated up front and reused for every event, so the
   measured allocations belong to push/pop/dispatch, not the workload. *)
let engine_churn () =
  let events = 1_000_000 and population = 1_024 in
  let open Mutps_sim in
  let engine = Engine.create () in
  let remaining = ref (events - population) in
  let seq = ref 0 in
  let rec fire () =
    if !remaining > 0 then begin
      decr remaining;
      incr seq;
      (* mixed int delay: spreads events over time without touching Rng
         (whose Int64 draws would allocate and pollute the measurement) *)
      Engine.schedule_after engine ~delay:(1 + (!seq * 0x9E37 land 0x3F)) fire
    end
  in
  for i = 1 to population do
    Engine.schedule_after engine ~delay:(i land 0x3F) fire
  done;
  let w0 = gc_words () and t0 = cpu_time () in
  Engine.run_all engine;
  let t1 = cpu_time () and w1 = gc_words () in
  let dispatched = Engine.dispatched engine in
  let sim_cycles = Engine.now engine in
  let wall_s = t1 -. t0 in
  let words_per_event = round2 ((w1 -. w0) /. float_of_int dispatched) in
  let gate =
    Report.row ~experiment:"engine_micro" ~system:""
      ~axis:[ ("case", "push_pop_churn") ]
      [
        ("events", float_of_int dispatched);
        ("minor_words_per_event", words_per_event);
        ("sim_cycles", float_of_int sim_cycles);
      ]
  in
  let perf =
    Report.row ~experiment:"engine_micro" ~system:""
      ~axis:[ ("case", "push_pop_churn_perf") ]
      [
        ("wall_s", wall_s);
        ("events_per_sec", float_of_int dispatched /. wall_s);
        ("sim_cycles_per_sec", float_of_int sim_cycles /. wall_s);
        ("minor_words_per_event", words_per_event);
      ]
  in
  (gate, perf)

(* Scheduler stress with a far-future mix: most events reschedule within
   a 64-cycle horizon (calendar-wheel territory), but a small standing
   population jumps 64K-1M cycles ahead on every firing, so the overflow
   heap and its migration back into the wheel stay on the measured path.
   The sim_cycles/events metrics are pure functions of the schedule and
   gate bit-exact in CI (test/golden/engine_sched_gate.json). *)
let engine_sched () =
  let events = 1_000_000 and near_pop = 1_024 and far_pop = 64 in
  let open Mutps_sim in
  let engine = Engine.create () in
  let remaining = ref (events - near_pop - far_pop) in
  let seq = ref 0 in
  let rec fire_near () =
    if !remaining > 0 then begin
      decr remaining;
      incr seq;
      Engine.schedule_after engine ~delay:(1 + (!seq * 0x9E37 land 0x3F)) fire_near
    end
  in
  let rec fire_far () =
    if !remaining > 0 then begin
      decr remaining;
      incr seq;
      (* always beyond any near-future horizon: exercises overflow + migration *)
      Engine.schedule_after engine
        ~delay:(65_536 + (!seq * 0x2545F49 land 0xFFFFF))
        fire_far
    end
  in
  for i = 1 to near_pop do
    Engine.schedule_after engine ~delay:(i land 0x3F) fire_near
  done;
  for i = 1 to far_pop do
    Engine.schedule_after engine ~delay:(65_536 + (i * 8_191)) fire_far
  done;
  let w0 = gc_words () and t0 = cpu_time () in
  Engine.run_all engine;
  let t1 = cpu_time () and w1 = gc_words () in
  let dispatched = Engine.dispatched engine in
  let sim_cycles = Engine.now engine in
  let wall_s = t1 -. t0 in
  let words_per_event = round2 ((w1 -. w0) /. float_of_int dispatched) in
  let gate =
    Report.row ~experiment:"engine_micro" ~system:""
      ~axis:[ ("case", "sched_micro") ]
      [
        ("events", float_of_int dispatched);
        ("minor_words_per_event", words_per_event);
        ("sim_cycles", float_of_int sim_cycles);
      ]
  in
  let perf =
    Report.row ~experiment:"engine_micro" ~system:""
      ~axis:[ ("case", "sched_micro_perf") ]
      [
        ("wall_s", wall_s);
        ("events_per_sec", float_of_int dispatched /. wall_s);
        ("sim_cycles_per_sec", float_of_int sim_cycles /. wall_s);
        ("minor_words_per_event", words_per_event);
      ]
  in
  (gate, perf)

(* The fig2a hot loop (uniform gets against μTPS) with the harness's
   warmup excluded: deltas are taken across the measured window only, so
   populate/warmup allocations do not dilute words-per-event. *)
let engine_fig2a () =
  let open Mutps_sim in
  let scale = Harness.scale_from_env () in
  let spec =
    Mutps_workload.Ycsb.get_only_uniform ~keyspace:scale.Harness.keyspace
      ~value_size:64 ()
  in
  let built = Harness.build Harness.Mutps scale spec in
  let clients = Harness.start_clients built scale spec in
  Engine.run built.Harness.engine ~until:scale.Harness.warmup;
  let d0 = Engine.dispatched built.Harness.engine in
  let c0 = Mutps_net.Client.completed clients in
  let w0 = gc_words () and t0 = cpu_time () in
  Engine.run built.Harness.engine
    ~until:(scale.Harness.warmup + scale.Harness.measure);
  let t1 = cpu_time () and w1 = gc_words () in
  let events = Engine.dispatched built.Harness.engine - d0 in
  let completed = Mutps_net.Client.completed clients - c0 in
  let wall_s = t1 -. t0 in
  let words_per_event = round2 ((w1 -. w0) /. float_of_int events) in
  let gate =
    Report.row ~experiment:"engine_micro" ~system:"uTPS"
      ~axis:[ ("case", "fig2a_hot_loop") ]
      [
        ("events", float_of_int events);
        ("completed", float_of_int completed);
        ("minor_words_per_event", words_per_event);
      ]
  in
  let perf =
    Report.row ~experiment:"engine_micro" ~system:"uTPS"
      ~axis:[ ("case", "fig2a_hot_loop_perf") ]
      [
        ("wall_s", wall_s);
        ("events_per_sec", float_of_int events /. wall_s);
        ( "sim_cycles_per_sec",
          float_of_int scale.Harness.measure /. wall_s );
        ("minor_words_per_event", words_per_event);
        ("ops_per_sec", float_of_int completed /. wall_s);
      ]
  in
  (gate, perf)

let run_engine_micro () =
  print_endline "\n=== Engine micro-benchmark (mutps.alloc trajectory) ===";
  let gate_churn, perf_churn = engine_churn () in
  let gate_sched, perf_sched = engine_sched () in
  let gate_fig, perf_fig = engine_fig2a () in
  let rows =
    [ gate_churn; perf_churn; gate_sched; perf_sched; gate_fig; perf_fig ]
  in
  List.iter
    (fun (r : Report.row) ->
      Printf.printf "%-22s" (List.assoc "case" r.Report.axis);
      List.iter
        (fun (k, v) -> Printf.printf "  %s=%s" k (Report.float_to_string v))
        r.Report.metrics;
      print_newline ())
    rows;
  ( rows,
    [ gate_churn; gate_fig ],
    [ gate_sched ],
    [ perf_churn; perf_sched; perf_fig ] )

(* ------------------------------------------------------------------ *)
(* Argument parsing and the parallel experiment pass                   *)
(* ------------------------------------------------------------------ *)

type opts = {
  jobs : int;
  json : string option;
  json_dir : string option;
  gate_json : string option;
  sched_gate_json : string option;
  perf_json : string option;
  sample : string option;  (** [Some spec] = interval-sampled experiments *)
  micro : bool;
  engine_micro : bool;
  names : string list;  (** [] = all *)
}

let usage () =
  prerr_endline
    "usage: main.exe [--jobs N] [--json FILE] [--json-dir DIR] \
     [--gate-json FILE] [--sched-gate-json FILE] [--perf-json FILE] \
     [--sample[=K[,INTERVAL]]] [micro | engine-micro | EXPERIMENT...]";
  exit 2

let parse_args argv =
  let opts =
    ref
      {
        jobs = Runner.default_jobs ();
        json = None;
        json_dir = None;
        gate_json = None;
        sched_gate_json = None;
        perf_json = None;
        sample = None;
        micro = false;
        engine_micro = false;
        names = [];
      }
  in
  let rec go = function
    | [] -> ()
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some j when j >= 1 -> opts := { !opts with jobs = j }
      | _ -> usage ());
      go rest
    | "--json" :: v :: rest ->
      opts := { !opts with json = Some v };
      go rest
    | "--json-dir" :: v :: rest ->
      opts := { !opts with json_dir = Some v };
      go rest
    | "--gate-json" :: v :: rest ->
      opts := { !opts with gate_json = Some v };
      go rest
    | "--sched-gate-json" :: v :: rest ->
      opts := { !opts with sched_gate_json = Some v };
      go rest
    | "--perf-json" :: v :: rest ->
      opts := { !opts with perf_json = Some v };
      go rest
    | "--sample" :: rest ->
      opts := { !opts with sample = Some "" };
      go rest
    | arg :: rest when String.length arg > 9 && String.sub arg 0 9 = "--sample=" ->
      opts :=
        { !opts with
          sample = Some (String.sub arg 9 (String.length arg - 9)) };
      go rest
    | "micro" :: rest ->
      opts := { !opts with micro = true };
      go rest
    | "engine-micro" :: rest ->
      opts := { !opts with engine_micro = true };
      go rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      Printf.eprintf "unknown flag %s\n%!" arg;
      usage ()
    | name :: rest ->
      opts := { !opts with names = !opts.names @ [ name ] };
      go rest
  in
  go (List.tl (Array.to_list argv));
  !opts

let () =
  let opts = parse_args Sys.argv in
  (* no positional args: full evaluation + microbenchmarks *)
  let run_everything =
    opts.names = [] && (not opts.micro) && not opts.engine_micro
  in
  let names = if run_everything then Registry.names () else opts.names in
  (match
     List.filter (fun n -> Registry.find n = None) names
   with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment(s) %s; available: %s\n%!"
      (String.concat ", " unknown)
      (String.concat ", " (Registry.names ()));
    exit 2);
  let failures = ref 0 in
  let experiment_rows = ref [] in
  let sample_cfg =
    match opts.sample with
    | None -> None
    | Some spec -> (
      match Mutps_sample.Sample.parse spec with
      | Ok cfg -> Some cfg
      | Error msg ->
        Printf.eprintf "--sample: %s\n%!" msg;
        exit 2)
  in
  if names <> [] then begin
    let scale =
      { (Harness.scale_from_env ()) with Harness.sample = sample_cfg }
    in
    let outcomes =
      Runner.run_all ~jobs:opts.jobs
        ~on_done:(fun o ->
          Printf.eprintf "[%s %s in %.1fs cpu]\n%!" o.Runner.name
            (if o.Runner.error = None then "done" else "FAILED")
            o.Runner.cpu_s)
        names scale
    in
    (* stream the captured text in request order, then the failure list *)
    List.iter
      (fun (o : Runner.outcome) ->
        print_string o.Runner.output;
        match o.Runner.error with
        | None -> ()
        | Some msg -> Printf.printf "[%s FAILED: %s]\n%!" o.Runner.name msg)
      outcomes;
    let failed = Runner.failed outcomes in
    failures := List.length failed;
    experiment_rows := Runner.rows outcomes;
    match opts.json_dir with
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (o : Runner.outcome) ->
          let path = Filename.concat dir ("BENCH_" ^ o.Runner.name ^ ".json") in
          Report.write_file path o.Runner.rows)
        outcomes;
      Printf.eprintf "json: per-experiment files -> %s/BENCH_*.json\n%!" dir
    | None -> ()
  end;
  let engine_rows, engine_gate_rows, sched_gate_rows, perf_rows =
    if opts.engine_micro || run_everything then run_engine_micro ()
    else ([], [], [], [])
  in
  (match opts.gate_json with
  | Some path ->
    Report.write_file path engine_gate_rows;
    Printf.eprintf "json: %d gate row(s) -> %s\n%!"
      (List.length engine_gate_rows) path
  | None -> ());
  (match opts.sched_gate_json with
  | Some path ->
    Report.write_file path sched_gate_rows;
    Printf.eprintf "json: %d sched gate row(s) -> %s\n%!"
      (List.length sched_gate_rows) path
  | None -> ());
  (match opts.perf_json with
  | Some path ->
    Report.write_file path perf_rows;
    Printf.eprintf "json: %d perf row(s) -> %s\n%!" (List.length perf_rows)
      path
  | None -> ());
  (match opts.json with
  | Some path ->
    let rows = !experiment_rows @ engine_rows in
    Report.write_file path rows;
    Printf.eprintf "json: %d row(s) -> %s\n%!" (List.length rows) path
  | None -> ());
  (match opts.json_dir with
  | Some dir when engine_rows <> [] ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Report.write_file
      (Filename.concat dir "BENCH_engine_micro.json")
      engine_rows
  | _ -> ());
  if opts.micro || run_everything then run_micro ();
  if !failures > 0 then begin
    Printf.eprintf "%d experiment(s) failed\n%!" !failures;
    exit 1
  end
