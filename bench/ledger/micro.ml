(* Per-layer micro-measurements for traced runs: the workload's own op
   stream replayed through one layer at a time, with no socket and no
   simulated clock in the way. *)

module Resp = Mutps_native.Resp
module Clock = Mutps_native.Clock
module Deque = Mutps_native.Deque
module Fiber = Mutps_native.Fiber
module Sched = Mutps_native.Sched
module Opgen = Mutps_workload.Opgen
module Request = Mutps_queue.Request
module Config = Mutps_kvs.Config
module Backend = Mutps_kvs.Backend
module Env = Mutps_mem.Env
module Item = Mutps_store.Item
module Index = Mutps_index.Index_intf
module Simthread = Mutps_sim.Simthread

let replayed = 20_000

(* ns per unit of [f], over repeated passes until [budget_ns] of wall
   time has gone by (the clock ticks in microseconds); the median of
   three such measurements. *)
let time_per ~budget_ns ~units f =
  let once () =
    let t0 = Clock.now_ns () in
    let passes = ref 0 in
    while Clock.now_ns () - t0 < budget_ns do
      f ();
      incr passes
    done;
    float_of_int (Clock.now_ns () - t0) /. float_of_int (!passes * units)
  in
  Samples.median [ once (); once (); once () ]

let ops (w : Spec.workload) ~seed =
  let g = Opgen.make (Spec.opgen_spec w) ~seed in
  Array.init replayed (fun _ -> Opgen.next g)

(* What the server's poller and sequencer do per request: parse a
   command frame, encode its reply. *)
let resp w ~seed ~budget_ns =
  let ops = ops w ~seed in
  let frames =
    Array.map
      (fun op ->
        let b = Buffer.create 128 in
        Resp.encode_command b (Native_bench.command_of_op op);
        Buffer.to_bytes b)
      ops
  in
  let parse () =
    Array.iter
      (fun f ->
        match Resp.parse_command f ~len:(Bytes.length f) with
        | `Ok _ -> ()
        | `Need_more | `Bad _ -> failwith "resp replay: unparsable frame")
      frames
  in
  let replies = Array.map Native_bench.expected_reply ops in
  let out = Buffer.create 256 in
  let encode () =
    Array.iter
      (fun r ->
        Buffer.clear out;
        Resp.encode_reply out r)
      replies
  in
  [
    ("resp.parse_ns", time_per ~budget_ns ~units:replayed parse);
    ("resp.encode_ns", time_per ~budget_ns ~units:replayed encode);
  ]

(* What one shard executes per GET and SET: an index lookup, then an
   Item read or write on a free-running Env, over the keys one shard
   owns.  Native Split writes exclusively (its MR fiber is the only
   writer); the other paths take the seqlock. *)
let exec (w : Spec.workload) ~seed ~budget_ns =
  let shards, cfg =
    let capacity n = (Spec.keyspace w / n) + 64 in
    match w.Spec.system with
    | Spec.Native _ ->
      (Spec.native_shards, Config.default ~cores:2 ~capacity:(capacity Spec.native_shards) ())
    | Spec.Sim index -> (1, Config.default ~index ~capacity:(capacity 1) ())
  in
  let owned key = Int64.rem key (Int64.of_int shards) = 0L in
  let backend = Backend.create cfg in
  Backend.populate backend ~owned ~keyspace:(Spec.keyspace w) ~value_size:Spec.value_size;
  let env =
    Env.make_freerun
      ~ctx:(Simthread.detached ~name:"ledger" backend.Backend.engine)
      ~hier:backend.Backend.hier ~core:0
  in
  let index = backend.Backend.index in
  let mine = List.filter (fun op -> owned op.Opgen.key) (Array.to_list (ops w ~seed)) in
  let keys kind = Array.of_list (List.filter_map (fun op -> if op.Opgen.kind = kind then Some op.Opgen.key else None) mine) in
  let gets = keys Request.Get and sets = keys Request.Put in
  let values = Array.map (fun key -> Mutps_net.Client.payload ~key ~size:Spec.value_size) sets in
  let item key =
    match index.Index.lookup env key with
    | Some item -> item
    | None -> failwith "exec replay: preloaded key missing"
  in
  let exclusive =
    match w.Spec.system with
    | Spec.Native Mutps_native.Server.Split -> true
    | Spec.Native (Mutps_native.Server.Rtc_pool _) | Spec.Sim _ -> false
  in
  (* the commit is a no-op on a free-running Env; it is the publication
     point the seqlock protocol expects before an item write *)
  let write key v =
    let it = item key in
    Env.commit env;
    if exclusive then Item.write_exclusive env it v backend.Backend.slab
    else Item.write env it v backend.Backend.slab
  in
  let per units f = if units = 0 then 0.0 else time_per ~budget_ns ~units f in
  [
    ("exec.get_ns", per (Array.length gets) (fun () -> Array.iter (fun k -> ignore (Item.read env (item k))) gets));
    ("exec.set_ns", per (Array.length sets) (fun () -> Array.iteri (fun i k -> write k values.(i)) sets));
  ]

(* The native runtime: a deque push+take pair, and one fiber yield on a
   single-worker scheduler; and the host speed probe these timings ran
   next to. *)
let runtime ~budget_ns =
  let q = Deque.create () in
  let n = 1000 in
  let deque () =
    for i = 1 to n do
      ignore (Deque.push q i);
      ignore (Deque.take q)
    done
  in
  let yields = 100_000 in
  let fiber () =
    let s = Sched.create ~workers:1 () in
    Sched.spawn s (fun () ->
        for _ = 1 to yields do
          Fiber.yield ()
        done);
    Sched.run s
  in
  let probe = Host.probe () in
  [
    ("deque.push_take_ns", time_per ~budget_ns ~units:n deque);
    ("fiber.yield_ns", time_per ~budget_ns ~units:yields fiber);
    ( "host.probe_ms",
      Samples.median (List.init 3 (fun _ -> float_of_int (Host.probe_ns probe) /. 1e6)) );
  ]
