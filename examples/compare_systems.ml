(* Head-to-head: run μTPS, BaseKV and eRPC-KV on the same machine model
   and workload, print throughput and latency side by side — a miniature
   of the paper's Figure 7 for one cell.

     dune exec examples/compare_systems.exe *)

open Mutps_kvs
module Engine = Mutps_sim.Engine
module Stats = Mutps_sim.Stats
module Client = Mutps_net.Client
module Opgen = Mutps_workload.Opgen
module Ycsb = Mutps_workload.Ycsb

let keyspace = 100_000
let cores = 8
let value_size = 64

let base_config () =
  let c = Config.default ~cores ~index:Config.Tree ~capacity:keyspace () in
  {
    c with
    Config.refresh_cycles = 5_000_000;
    geometry = Some (Config.scaled_geometry ~cores ~keyspace);
    hot_k = keyspace / 200;
  }

type built = {
  engine : Engine.t;
  link : Mutps_net.Link.t;
  transport : Mutps_net.Transport.t;
  dispatch : Opgen.op -> int;
}

let build_system = function
  | `Mutps ->
    (* a statically tuned split (the benches and Figure 13 use the real
       auto-tuner; 2/3 CR threads is the usual skewed-read optimum) *)
    let kv = Mutps.create ~ncr:(2 * cores / 3) (base_config ()) in
    Backend.populate (Mutps.backend kv) ~keyspace ~value_size;
    Mutps.start kv;
    let b = Mutps.backend kv in
    ( "uTPS-T",
      {
        engine = b.Backend.engine;
        link = b.Backend.link;
        transport = Mutps.transport kv;
        dispatch = Client.uniform_dispatch;
      } )
  | (`Basekv | `Erpckv) as sys ->
    let name, make =
      match sys with
      | `Basekv -> ("BaseKV", Rtc.basekv)
      | `Erpckv -> ("eRPC-KV", Rtc.erpckv)
    in
    let kv = make (base_config ()) in
    Backend.populate (Rtc.backend kv) ~keyspace ~value_size;
    Rtc.start kv;
    let b = Rtc.backend kv in
    ( name,
      {
        engine = b.Backend.engine;
        link = b.Backend.link;
        transport = Rtc.transport kv;
        dispatch = Rtc.dispatch kv;
      } )

let () =
  let spec = Ycsb.a ~keyspace ~value_size () in
  Printf.printf "YCSB-A (50%% put / 50%% get, Zipfian 0.99), %dB values, %d keys, %d cores\n\n"
    value_size keyspace cores;
  Printf.printf "%-10s %10s %10s %10s\n" "system" "Mops" "P50 (us)" "P99 (us)";
  List.iter
    (fun sys ->
      let name, b = build_system sys in
      let clients =
        Client.start ~engine:b.engine ~link:b.link ~transport:b.transport
          { Client.clients = 48; window = 4; spec; seed = 11;
            dispatch = b.dispatch }
      in
      Engine.run b.engine ~until:10_000_000;
      Client.reset_stats clients;
      let t0 = Engine.now b.engine in
      Engine.run b.engine ~until:(t0 + 25_000_000);
      let hist = Client.latency clients in
      Printf.printf "%-10s %10.2f %10.2f %10.2f\n" name
        (Stats.mops ~ops:(Client.completed clients) ~cycles:25_000_000 ~ghz:2.5)
        (float_of_int (Stats.Hist.percentile hist 50.0) /. 2500.0)
        (float_of_int (Stats.Hist.percentile hist 99.0) /. 2500.0))
    [ `Mutps; `Basekv; `Erpckv ]
