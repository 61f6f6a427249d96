(* The ledger's vocabulary: its workloads and every metric it reports.
   BENCHMARK.json at the repository root is rendered from these tables
   ([ledger.exe benchmark-json]); a runtest rule diffs the two, so the
   contract and the code cannot drift apart. *)

module Server = Mutps_native.Server
module Config = Mutps_kvs.Config
module Opgen = Mutps_workload.Opgen

type system =
  | Native of Server.mode  (** effect-fiber server on a real socket *)
  | Sim of Config.index_kind  (** μTPS under the DES *)

type workload = {
  name : string;
  why : string;
  system : system;
  theta : float;  (** Zipf skew; 0 = uniform *)
  get : float;  (** GET share; the rest are SETs *)
}

let value_size = 64

(* Native: 2 shards on 1 scheduler domain, a 1024-entry CR hot cache per
   shard.  The skewed workloads' hot set sits near the 2048 cache
   entries; the uniform one is 50x larger. *)
let native_keyspace = 100_000
let native_shards = 2
let native_hot_cap = 1024

(* Sim: the harness's default scale (200K items against a scaled LLC,
   12 simulated cores, 64 clients x window 4). *)
let sim_keyspace = Mutps_experiments.Harness.default_scale.Mutps_experiments.Harness.keyspace

let keyspace w = match w.system with Native _ -> native_keyspace | Sim _ -> sim_keyspace

let opgen_spec w =
  {
    Opgen.name = w.name;
    keyspace = keyspace w;
    key_dist = (if w.theta = 0.0 then Opgen.Uniform else Opgen.Zipfian w.theta);
    size_dist = Opgen.Fixed value_size;
    mix = { Opgen.get = w.get; put = 1.0 -. w.get; scan = 0.0 };
    scan_len = 1;
  }

let workloads =
  [
    {
      name = "native-split-zipf-read";
      why =
        "Paper's headline case on the native uTPS split: Zipf 0.99, 95% GET. The CR hot cache \
         answers most requests, so sockets, RESP, shard hand-off and reply sequencing dominate.";
      system = Native Server.Split;
      theta = 0.99;
      get = 0.95;
    };
    {
      name = "native-split-uniform-write";
      why =
        "Same split server, uniform keys, 50% SET: CR hits fall to ~2%, every op crosses CR to \
         MR and half write items, so a Split gain that costs writes shows here.";
      system = Native Server.Split;
      theta = 0.0;
      get = 0.5;
    };
    {
      name = "native-rtc-zipf-read";
      why =
        "First workload's traffic on run-to-completion BaseKV: same sockets, RESP and transport \
         without the CR/MR split, so a Split-only change must leave it flat.";
      system = Native (Server.Rtc_pool Mutps_kvs.Exec.Locked);
      theta = 0.99;
      get = 0.95;
    };
    {
      name = "sim-utps-uniform-get";
      why =
        "Simulated uTPS, uniform GETs, tree index: the footprint overflows the modelled LLC and \
         every op crosses the CR/MR ring, so host time is dispatch, effects and the miss path.";
      system = Sim Config.Tree;
      theta = 0.0;
      get = 1.0;
    };
    {
      name = "sim-utps-zipf-put";
      why =
        "Simulated uTPS, Zipf 0.99, 50% PUT, hash index: the hot set fits, about half is answered \
         at CR and seqlock writes invalidate, so a gain that only helps misses shows none here.";
      system = Sim Config.Hash;
      theta = 0.99;
      get = 0.5;
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

type better = Higher | Lower

type metric = {
  m_name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end only: tolerated share of regression *)
}

let m ?(bound = 0.0) m_name unit better = { m_name; unit; better; bound }

(* End-to-end metrics, on each workload's own clock: wall time for the
   native server, simulated time for the DES, and host CPU time per op
   for both — the served system's speed and the simulator's.  Bounds are
   calibrated in README.md; p99, which tracks host hiccups more than the
   system, is reported per layer. *)
let end_to_end =
  [
    m "ops_per_s" "1/s" Higher ~bound:0.25;
    m "p50_us" "us" Lower ~bound:0.25;
    m "cpu_ns_per_op" "ns" Lower ~bound:0.25;
    m "rss_mb" "MiB" Lower ~bound:0.10;
    m "setup_s" "s" Lower ~bound:0.25;
  ]

(* The simulator's host-timed metrics (cpu_ns_per_op, setup_s) are
   referred to a nominal host: each is divided by how slowly the host ran
   while it was measured, as timed by [Host.probe] between the slices of
   the same work on the same CPU.  The nominal is the probe's typical CPU
   time on the 2-core VM the bounds were calibrated on. *)
let nominal_probe_ns = 12e6

let slowdown ~probe_ns = probe_ns /. nominal_probe_ns

(* [Env.tagged] sites seen in the simulated workloads; cycles charged
   under any other site land in [other], and cycles outside every site
   in [untagged]. *)
let profile_sites =
  [
    "idle"; "Mutps.refresh_hotset"; "Hotcache.find"; "Ring.push"; "Ring.peek";
    "Ring.complete"; "Ring.take_completed"; "Exec.respond_item"; "Exec.respond_missing";
    "Item.read"; "Item.write"; "btree.lookup"; "btree.batch_lookup";
    "cuckoo.lookup"; "cuckoo.batch_lookup"; "other"; "untagged";
  ]

let per_layer =
  [
    (* the latency tail, on the workload's own clock *)
    m "latency.p99_us" "us" Lower;
    (* the host's speed next to the per-layer timings: the probe's CPU time *)
    m "host.probe_ms" "ms" Lower;
    (* benchmark client, spans around each request *)
    m "client.write_us" "us" Lower;
    m "client.wait_us" "us" Lower;
    m "client.parse_ns" "ns" Lower;
    (* Resp, replaying the workload's op stream without sockets *)
    m "resp.parse_ns" "ns" Lower;
    m "resp.encode_ns" "ns" Lower;
    (* execution: Backend index + Item on a free-running Env *)
    m "exec.get_ns" "ns" Lower;
    m "exec.set_ns" "ns" Lower;
    (* native runtime *)
    m "deque.push_take_ns" "ns" Lower;
    m "fiber.yield_ns" "ns" Lower;
    (* the server process, read from /proc and its summary *)
    m "server.residual_us" "us" Lower;
    m "server.read_syscalls_per_op" "count" Lower;
    m "server.write_syscalls_per_op" "count" Lower;
    m "server.sys_cpu_frac" "fraction" Lower;
    m "server.involuntary_cs_per_s" "1/s" Lower;
    m "split.cr_hit_rate" "fraction" Higher;
    m "split.forward_frac" "fraction" Lower;
    m "sched.steals" "count" Lower;
    (* simulator host cost *)
    m "engine.events_per_op" "count" Lower;
    m "engine.host_ns_per_event" "ns" Lower;
    m "gc.minor_words_per_op" "words" Lower;
    m "gc.major_words_per_op" "words" Lower;
    (* the modelled machine, from the Metrics registry *)
    m "hier.l1_hits_per_op" "count" Higher;
    m "hier.l2_hits_per_op" "count" Higher;
    m "hier.llc_hits_per_op" "count" Higher;
    m "hier.dram_fetches_per_op" "count" Lower;
    m "hier.invalidations_per_op" "count" Lower;
    m "hier.dirty_transfers_per_op" "count" Lower;
    m "nic.ddio_miss_frac" "fraction" Lower;
    m "link.bytes_per_op" "bytes" Lower;
    (* the simulated KVS *)
    m "kvs.cr_hit_rate" "fraction" Higher;
    m "kvs.forward_frac" "fraction" Lower;
    m "kvs.cr_busy_frac" "fraction" Lower;
    m "kvs.mr_busy_frac" "fraction" Lower;
    m "crmr.in_flight" "count" Lower;
  ]
  @ List.map (fun site -> m ("profile." ^ site ^ ".cycles_per_op") "cycles" Lower) profile_sites
  @ [ m "trace.overhead_frac" "fraction" Lower ]

let unit_of name =
  List.find_map (fun x -> if x.m_name = name then Some x.unit else None) (end_to_end @ per_layer)

(* Driver contract: each run measures for this many seconds. *)
let run_seconds = 12

let command =
  [ "dune"; "exec"; "--root"; "."; "--display"; "quiet"; "bench/ledger/ledger.exe"; "--" ]

let benchmark_json () =
  let b = Buffer.create 8192 in
  let str s = "\"" ^ s ^ "\"" in
  let list items = String.concat ",\n" items in
  let better x = match x.better with Higher -> "higher" | Lower -> "lower" in
  Printf.bprintf b "{\n  \"command\": [%s],\n" (String.concat ", " (List.map str command));
  Printf.bprintf b "  \"paths\": [\"bench/ledger\"],\n";
  Printf.bprintf b "  \"run_seconds\": %d,\n" run_seconds;
  Printf.bprintf b "  \"workloads\": [\n%s\n  ],\n"
    (list
       (List.map
          (fun w -> Printf.sprintf "    {\"name\": %s, \"why\": %s}" (str w.name) (str w.why))
          workloads));
  Printf.bprintf b "  \"end_to_end\": [\n%s\n  ],\n"
    (list
       (List.map
          (fun x ->
            Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %.2f}"
              (str x.m_name) (str x.unit) (str (better x)) x.bound)
          end_to_end));
  Printf.bprintf b "  \"per_layer\": [\n%s\n  ]\n}\n"
    (list
       (List.map
          (fun x ->
            Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s}" (str x.m_name)
              (str x.unit) (str (better x)))
          per_layer));
  Buffer.contents b
