(** Figure 2 — the motivation experiments (§2.2).

    (a) NP-TPS (stages decoupled by deterministic replay, no inter-stage
        queue) vs NP-TPQ vs NP-TPQ with CAT isolation of the DDIO ways, on
        uniform gets across item sizes.
    (b) MassTree-analog index lookup throughput under Zipfian keys, with
        and without a dedicated thread for the 0.1‰ hottest keys.
    (c) Share-everything vs share-nothing vs μTPS put throughput as the
        worker count grows (skewed, 64 B items). *)

module Engine = Mutps_sim.Engine
module Simthread = Mutps_sim.Simthread
module Stats = Mutps_sim.Stats
module Env = Mutps_mem.Env
module Hierarchy = Mutps_mem.Hierarchy
module Item = Mutps_store.Item
module Index = Mutps_index.Index_intf
module Opgen = Mutps_workload.Opgen
module Ycsb = Mutps_workload.Ycsb
module Client = Mutps_net.Client
module Transport = Mutps_net.Transport
module Request = Mutps_queue.Request
module Kvs = Mutps_kvs

(* --- 2a ------------------------------------------------------------ *)

(* NP-TPQ with worker CLOS masks excluding the DDIO ways. *)
let cat_customize (built : Harness.built) =
  let hier = built.Harness.backend.Kvs.Backend.hier in
  let full = Hierarchy.full_llc_mask hier in
  let no_ddio = full land lnot (Hierarchy.ddio_mask hier) in
  for core = 0 to Hierarchy.cores hier - 1 do
    Hierarchy.set_clos hier ~core no_ddio
  done

module Sample = Mutps_sample.Sample
module Signature = Mutps_sample.Signature

(* NP-TPS via deterministic replay: stage-1 threads poll/parse/respond
   immediately; stage-2 threads regenerate the same key sequence and do the
   index + data work, with no queue between them.  Both stages share the
   machine, so their cache interference is real; system throughput is the
   slower stage's rate.  Returns [(mops, err)]; the error bound is 0 for
   exact runs. *)
let tps_replay (scale : Harness.scale) spec ~n1 =
  let config = Harness.mk_config ~index:Kvs.Config.Tree scale in
  let backend = Kvs.Backend.create config in
  let vsize = Harness.populate_size spec in
  Kvs.Backend.populate backend ~keyspace:scale.Harness.keyspace ~value_size:vsize;
  let rpc =
    Mutps_net.Reconf_rpc.create ~engine:backend.Kvs.Backend.engine
      ~hier:backend.Kvs.Backend.hier ~layout:backend.Kvs.Backend.layout
      ~link:backend.Kvs.Backend.link ~max_workers:n1 ~workers:n1 ()
  in
  let tr = Mutps_net.Reconf_rpc.transport rpc in
  (* stage 1: network-facing echo (poll, parse, respond with item-sized
     payloads drawn from the response buffer) *)
  for w = 0 to n1 - 1 do
    Simthread.spawn backend.Kvs.Backend.engine (fun ctx ->
        let env = Env.make ~ctx ~hier:backend.Kvs.Backend.hier ~core:w in
        while true do
          match tr.Transport.poll env ~worker:w with
          | Some (seq, _msg) ->
            Env.compute env Kvs.Config.parse_cycles;
            let bytes = 16 + vsize in
            let resp_addr = tr.Transport.resp_alloc ~worker:w ~bytes in
            Env.store env ~addr:resp_addr ~size:bytes;
            tr.Transport.post_response env ~seq ~resp_addr ~bytes ~value:None;
            Simthread.commit ctx
          | None -> Simthread.delay ctx Kvs.Config.poll_idle_cycles
        done)
  done;
  (* stage 2: replayed index lookups + data reads on the remaining cores *)
  let n2 = scale.Harness.cores - n1 in
  let stage2_ops = ref 0 in
  for i = 0 to n2 - 1 do
    let core = n1 + i in
    Simthread.spawn backend.Kvs.Backend.engine (fun ctx ->
        let env = Env.make ~ctx ~hier:backend.Kvs.Backend.hier ~core in
        let gen = Opgen.make spec ~seed:(1000 + core) in
        let batch = config.Kvs.Config.batch in
        let keys = Array.make batch 0L in
        while true do
          for j = 0 to batch - 1 do
            keys.(j) <- (Opgen.next gen).Opgen.key
          done;
          let items = backend.Kvs.Backend.index.Index.batch_lookup env keys in
          Array.iter
            (fun item ->
              match item with
              | Some item -> ignore (Item.read env item)
              | None -> ())
            items;
          stage2_ops := !stage2_ops + batch;
          Simthread.commit ctx
        done)
  done;
  let clients =
    Client.start ~engine:backend.Kvs.Backend.engine ~link:backend.Kvs.Backend.link
      ~transport:tr
      {
        Client.clients = scale.Harness.clients;
        window = scale.Harness.window;
        spec;
        seed = 7;
        dispatch = Client.uniform_dispatch;
      }
  in
  let g = Harness.ghz config in
  let engine = backend.Kvs.Backend.engine in
  match scale.Harness.sample with
  | None ->
    Engine.run engine ~until:scale.Harness.warmup;
    Client.reset_stats clients;
    stage2_ops := 0;
    Engine.run engine ~until:(scale.Harness.warmup + scale.Harness.measure);
    let r1 =
      Stats.mops ~ops:(Client.completed clients) ~cycles:scale.Harness.measure
        ~ghz:g
    in
    let r2 = Stats.mops ~ops:!stage2_ops ~cycles:scale.Harness.measure ~ghz:g in
    (Float.min r1 r2, 0.0)
  | Some cfg ->
    let hier = backend.Kvs.Backend.hier in
    Engine.run engine ~until:(Harness.sampled_warmup cfg scale);
    let src =
      Signature.of_counters
        (Array.append
           [|
             (fun () -> float_of_int (Client.completed clients));
             (fun () -> float_of_int !stage2_ops);
           |]
           (Harness.hier_signature_counters hier))
    in
    let probe =
      {
        Sample.set_warming =
          (fun on ->
            Hierarchy.set_warming hier on;
            Client.set_recording clients (not on));
        begin_interval =
          (fun () ->
            Client.reset_stats clients;
            stage2_ops := 0);
        end_interval =
          (fun () ->
            [
              ("stage1", float_of_int (Client.completed clients));
              ("stage2", float_of_int !stage2_ops);
            ]);
        signature = (fun () -> Signature.take src);
      }
    in
    let o = Sample.run cfg ~engine ~probe ~measure:scale.Harness.measure in
    let e1 = List.assoc "stage1" o.Sample.metrics in
    let e2 = List.assoc "stage2" o.Sample.metrics in
    (* system throughput is the slower stage's; carry that stage's bound *)
    let slower = if e1.Sample.value <= e2.Sample.value then e1 else e2 in
    ( Harness.sampled_mops cfg ~ghz:g slower.Sample.value,
      Harness.sampled_mops cfg ~ghz:g slower.Sample.err )

let sizes_2a = [ 64; 256; 1024 ]

(* Comma-separated int list from the environment, falling back to
   [default] when unset/empty/unparseable.  Lets the paper-scale CI lane
   trim the grid (each 10M-item cell is minutes of host time). *)
let env_ints name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
    match
      String.split_on_char ',' s
      |> List.filter_map (fun tok -> int_of_string_opt (String.trim tok))
    with
    | [] -> default
    | vals -> vals)

let run_2a scale =
  Harness.section "Figure 2a: NP-TPS vs NP-TPQ vs NP-TPQ+CAT (uniform gets)";
  let sizes =
    List.filter
      (fun s -> List.mem s (env_ints "MUTPS_FIG2A_SIZES" sizes_2a))
      sizes_2a
  in
  let rows =
    List.concat_map
      (fun size ->
        let spec =
          Ycsb.get_only_uniform ~keyspace:scale.Harness.keyspace
            ~value_size:size ()
        in
        let axis = [ ("size", string_of_int size) ] in
        let tpq = Harness.measure Harness.Basekv scale spec in
        let cat =
          Harness.measure ~customize:cat_customize Harness.Basekv scale spec
        in
        (* sweep the stage split like the paper's manual tuning *)
        let cores = scale.Harness.cores in
        let best = ref 0.0 and best_err = ref 0.0 in
        List.iter
          (fun n1 ->
            if n1 >= 1 && n1 < cores then begin
              let r, err = tps_replay scale spec ~n1 in
              if r > !best then begin
                best := r;
                best_err := err
              end
            end)
          (env_ints "MUTPS_FIG2A_SPLITS"
             [ cores / 4; cores / 3; cores / 2; 2 * cores / 3 ]);
        let tps_metrics =
          ("mops", !best)
          ::
          (match scale.Harness.sample with
          | Some _ -> [ ("mops_err", !best_err) ]
          | None -> [])
        in
        [
          Report.of_measurement ~experiment:"fig2a" ~system:"NP-TPQ" ~axis tpq;
          Report.of_measurement ~experiment:"fig2a" ~system:"NP-TPQ+CAT" ~axis
            cat;
          Report.row ~experiment:"fig2a" ~system:"NP-TPS" ~axis tps_metrics;
        ])
      sizes
  in
  let table =
    Table.create [ "item size"; "NP-TPQ"; "NP-TPQ+CAT"; "NP-TPS (replay)" ]
  in
  List.iter
    (fun size ->
      let axis = [ ("size", string_of_int size) ] in
      let m system =
        Report.find_metric rows ~experiment:"fig2a" ~system ~axis "mops"
      in
      Table.add_row table
        [
          string_of_int size;
          Table.cell_f (m "NP-TPQ");
          Table.cell_f (m "NP-TPQ+CAT");
          Table.cell_f (m "NP-TPS");
        ])
    sizes;
  Harness.print_table table;
  rows

(* --- 2b ------------------------------------------------------------ *)

(* Pure index-lookup throughput: [threads] workers drain Zipfian lookups;
   in the separated variant one worker owns the hottest keys and the rest
   never see them. *)
let lookup_rate scale ~threads ~separated =
  let config =
    Harness.mk_config ~index:Kvs.Config.Tree
      { scale with Harness.cores = threads }
  in
  let backend = Kvs.Backend.create config in
  let keyspace = scale.Harness.keyspace in
  Kvs.Backend.populate backend ~keyspace ~value_size:8;
  let hot_count = max 1 (keyspace / 10_000) (* 0.1 permille *) in
  let hot = Opgen.hottest_keys ~keyspace hot_count in
  let is_hot k = Array.exists (Int64.equal k) hot in
  let spec =
    { (Ycsb.c ~keyspace ~value_size:8 ()) with Opgen.key_dist = Opgen.Zipfian 0.99 }
  in
  let ops = ref 0 in
  for w = 0 to threads - 1 do
    Simthread.spawn backend.Kvs.Backend.engine (fun ctx ->
        let env = Env.make ~ctx ~hier:backend.Kvs.Backend.hier ~core:w in
        let gen = Opgen.make spec ~seed:(500 + w) in
        let batch = 8 in
        let keys = Array.make batch 0L in
        while true do
          let n = ref 0 in
          while !n < batch do
            let k = (Opgen.next gen).Opgen.key in
            if separated then begin
              (* worker 0 handles only hot keys; others skip them *)
              if w = 0 && is_hot k then begin
                keys.(!n) <- k;
                incr n
              end
              else if w > 0 && not (is_hot k) then begin
                keys.(!n) <- k;
                incr n
              end
              else if w = 0 then () (* draw again *)
              else ()
            end
            else begin
              keys.(!n) <- k;
              incr n
            end
          done;
          ignore (backend.Kvs.Backend.index.Index.batch_lookup env keys);
          ops := !ops + batch;
          Simthread.commit ctx
        done)
  done;
  let engine = backend.Kvs.Backend.engine in
  let g = Harness.ghz config in
  match scale.Harness.sample with
  | None ->
    Engine.run engine ~until:scale.Harness.warmup;
    ops := 0;
    Engine.run engine ~until:(scale.Harness.warmup + scale.Harness.measure);
    (Stats.mops ~ops:!ops ~cycles:scale.Harness.measure ~ghz:g, 0.0)
  | Some cfg ->
    let hier = backend.Kvs.Backend.hier in
    Engine.run engine ~until:(Harness.sampled_warmup cfg scale);
    let src =
      Signature.of_counters
        (Array.append
           [| (fun () -> float_of_int !ops) |]
           (Harness.hier_signature_counters hier))
    in
    let probe =
      {
        Sample.set_warming = (fun on -> Hierarchy.set_warming hier on);
        begin_interval = (fun () -> ops := 0);
        end_interval = (fun () -> [ ("ops", float_of_int !ops) ]);
        signature = (fun () -> Signature.take src);
      }
    in
    let o = Sample.run cfg ~engine ~probe ~measure:scale.Harness.measure in
    let e = List.assoc "ops" o.Sample.metrics in
    ( Harness.sampled_mops cfg ~ghz:g e.Sample.value,
      Harness.sampled_mops cfg ~ghz:g e.Sample.err )

let run_2b scale =
  Harness.section
    "Figure 2b: index lookup throughput, hotspot separation (Zipfian)";
  let points = List.sort_uniq compare [ 4; 8; scale.Harness.cores ] in
  let rows =
    List.concat_map
      (fun threads ->
        let axis = [ ("threads", string_of_int threads) ] in
        let base, base_err = lookup_rate scale ~threads ~separated:false in
        let sep, sep_err = lookup_rate scale ~threads ~separated:true in
        let metrics v err =
          ("mops", v)
          ::
          (match scale.Harness.sample with
          | Some _ -> [ ("mops_err", err) ]
          | None -> [])
        in
        [
          Report.row ~experiment:"fig2b" ~system:"unified" ~axis
            (metrics base base_err);
          Report.row ~experiment:"fig2b" ~system:"separated" ~axis
            (metrics sep sep_err);
        ])
      points
  in
  let table = Table.create [ "threads"; "unified"; "separated"; "speedup" ] in
  List.iter
    (fun threads ->
      let axis = [ ("threads", string_of_int threads) ] in
      let m system =
        Report.find_metric rows ~experiment:"fig2b" ~system ~axis "mops"
      in
      Table.add_row table
        [
          string_of_int threads;
          Table.cell_f (m "unified");
          Table.cell_f (m "separated");
          Printf.sprintf "%.2fx" (m "separated" /. Float.max (m "unified") 1e-9);
        ])
    points;
  Harness.print_table table;
  rows

(* --- 2c ------------------------------------------------------------ *)

let run_2c scale =
  Harness.section
    "Figure 2c: put throughput vs worker threads (skewed, 64B items)";
  (* a saturation experiment: keep the offered load well above capacity *)
  let scale = { scale with Harness.clients = max scale.Harness.clients 96 } in
  let spec = Ycsb.put_only ~keyspace:scale.Harness.keyspace ~value_size:64 () in
  (* the paper sweeps to 28 threads; go past the default core count so the
     contention regime is visible *)
  let max_threads = max scale.Harness.cores 20 in
  let points =
    List.filter (fun n -> n <= max_threads) [ 2; 4; 8; 12; 16; 20; 24; 28 ]
  in
  let rows =
    List.concat_map
      (fun threads ->
        let s = { scale with Harness.cores = threads } in
        let axis = [ ("threads", string_of_int threads) ] in
        List.map
          (fun sys ->
            Report.of_measurement ~experiment:"fig2c"
              ~system:(Harness.system_name sys) ~axis
              (Harness.measure sys s spec))
          [ Harness.Basekv; Harness.Erpckv; Harness.Mutps ])
      points
  in
  let table =
    Table.create [ "threads"; "SE (BaseKV)"; "SN (eRPC-KV)"; "uTPS" ]
  in
  List.iter
    (fun threads ->
      let axis = [ ("threads", string_of_int threads) ] in
      let m system =
        Report.find_metric rows ~experiment:"fig2c" ~system ~axis "mops"
      in
      Table.add_row table
        [
          string_of_int threads;
          Table.cell_f (m "BaseKV");
          Table.cell_f (m "eRPC-KV");
          Table.cell_f (m "uTPS");
        ])
    points;
  Harness.print_table table;
  rows

let run scale =
  let a = run_2a scale in
  let b = run_2b scale in
  let c = run_2c scale in
  a @ b @ c
