(* Bechamel microbenchmarks of the substrate hot paths: the hierarchy
   model, ring and index operations as simulated threads, workload
   generation, histogram updates, engine dispatch, and the tracer's
   overhead when off and on.  Takes no arguments.  The paper's tables and
   figures run through `mutps-cli run`, the engine gates through
   `mutps-cli engine-micro`. *)

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

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline
      "usage: main.exe (no arguments; experiments run via mutps-cli run)";
    exit 2
  end;
  run_micro ()
