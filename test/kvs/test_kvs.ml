open Mutps_sim
open Mutps_kvs
module Client = Mutps_net.Client
module Request = Mutps_queue.Request
module Opgen = Mutps_workload.Opgen
module Ycsb = Mutps_workload.Ycsb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let keyspace = 5_000
let value_size = 64

let small_config ?(cores = 8) ?(index = Config.Tree) () =
  let c = Config.default ~cores ~index ~capacity:keyspace () in
  { c with Config.hot_k = 256; refresh_cycles = 2_000_000; sample_every = 4 }

(* Attach a verifying hook: every get must return the deterministic payload
   for its key (populate and all puts write Client.payload). *)
let verify_values clients ~failures =
  Client.on_completion clients (fun op value ->
      match (op.Opgen.kind, value) with
      | Request.Get, Some v ->
        if not (Bytes.equal v (Client.payload ~key:op.Opgen.key ~size:value_size))
        then incr failures
      | Request.Get, None -> incr failures
      | _ -> ())

type sys = {
  engine : Engine.t;
  transport : Mutps_net.Transport.t;
  link : Mutps_net.Link.t;
  dispatch : Opgen.op -> int;
  mutps : Mutps.t option;
}

let build_rtc make config =
  let kv = make config in
  Backend.populate (Rtc.backend kv) ~keyspace ~value_size;
  Rtc.start kv;
  let b = Rtc.backend kv in
  {
    engine = b.Backend.engine;
    transport = Rtc.transport kv;
    link = b.Backend.link;
    dispatch = Rtc.dispatch kv;
    mutps = None;
  }

let build_mutps ?ncr config =
  let kv = Mutps.create ?ncr config in
  Backend.populate (Mutps.backend kv) ~keyspace ~value_size;
  Mutps.start kv;
  let b = Mutps.backend kv in
  {
    engine = b.Backend.engine;
    transport = Mutps.transport kv;
    link = b.Backend.link;
    dispatch = Client.uniform_dispatch;
    mutps = Some kv;
  }

let run_system sys ~spec ~horizon ~clients:n =
  let failures = ref 0 in
  let clients =
    Client.start ~engine:sys.engine ~link:sys.link ~transport:sys.transport
      { Client.clients = n; window = 2; spec; seed = 9; dispatch = sys.dispatch }
  in
  verify_values clients ~failures;
  Engine.run sys.engine ~until:horizon;
  (clients, !failures)

let horizon = 20_000_000 (* 8 ms of simulated time *)

(* Exactly-once accounting: stop the clients, let what is in flight land
   within a bounded window, then every request must have been answered,
   and only once. *)
let check_exactly_once name engine clients =
  Client.stop clients;
  Engine.run engine ~until:(Engine.now engine + 5_000_000);
  check_int (name ^ ": nothing outstanding") 0 (Client.outstanding clients);
  check_int (name ^ ": every request answered once") (Client.sent clients)
    (Client.completed clients)

(* ------------------------------------------------------------------ *)
(* End-to-end correctness per system                                   *)
(* ------------------------------------------------------------------ *)

let test_end_to_end name build =
  let spec = Ycsb.a ~keyspace ~value_size () in
  let sys = build (small_config ()) in
  let clients, failures = run_system sys ~spec ~horizon ~clients:8 in
  let done_ = Client.completed clients in
  check_bool (Printf.sprintf "%s: completed %d > 500" name done_) true (done_ > 500);
  check_int (name ^ ": value corruption") 0 failures;
  check_exactly_once name sys.engine clients

let test_basekv_end_to_end () = test_end_to_end "basekv" (build_rtc Rtc.basekv)
let test_erpckv_end_to_end () = test_end_to_end "erpckv" (build_rtc Rtc.erpckv)
let test_mutps_end_to_end () = test_end_to_end "mutps" (build_mutps ?ncr:None)

let test_mutps_hash_end_to_end () =
  let spec = Ycsb.a ~keyspace ~value_size () in
  let sys = build_mutps (small_config ~index:Config.Hash ()) in
  let clients, failures = run_system sys ~spec ~horizon ~clients:8 in
  check_bool "hash variant progresses" true (Client.completed clients > 500);
  check_int "hash variant corruption" 0 failures;
  check_exactly_once "hash variant" sys.engine clients

(* ------------------------------------------------------------------ *)
(* μTPS-specific behaviour                                             *)
(* ------------------------------------------------------------------ *)

let test_mutps_hot_path_engages () =
  (* under heavy skew the hot cache must start absorbing requests *)
  let spec =
    { (Ycsb.c ~keyspace ~value_size ()) with Opgen.key_dist = Opgen.Zipfian 0.99 }
  in
  let sys = build_mutps (small_config ()) in
  let kv = Option.get sys.mutps in
  let clients, failures = run_system sys ~spec ~horizon:40_000_000 ~clients:8 in
  check_bool "progress" true (Client.completed clients > 1000);
  check_int "no corruption" 0 failures;
  check_bool "hot set built" true (Mutps.hot_size kv > 0);
  check_bool
    (Printf.sprintf "cr hits %d > 0" (Mutps.cr_hits kv))
    true (Mutps.cr_hits kv > 0);
  check_bool "forwarding happened too" true (Mutps.forwarded kv > 0)

let test_mutps_uniform_mostly_forwards () =
  let spec = Ycsb.get_only_uniform ~keyspace ~value_size () in
  let sys = build_mutps (small_config ()) in
  let kv = Option.get sys.mutps in
  let clients, _ = run_system sys ~spec ~horizon ~clients:8 in
  let done_ = Client.completed clients in
  check_bool "progress" true (done_ > 500);
  (* uniform over 5000 keys with a 256-entry cache: < 30% CR hits *)
  check_bool "mostly forwarded" true
    (Mutps.cr_hits kv * 10 < done_ * 3)

let test_mutps_scan_workload () =
  let spec = Ycsb.e ~keyspace ~scan_len:10 ~value_size () in
  let sys = build_mutps (small_config ()) in
  let clients, failures = run_system sys ~spec ~horizon ~clients:4 in
  check_bool "scans progress" true (Client.completed clients > 100);
  check_int "no corruption" 0 failures

let test_mutps_scan_rejected_on_hash () =
  (* hash-indexed μTPS-H supports point queries only (§4); scans answer
     without data rather than crash *)
  let spec = Ycsb.c ~keyspace ~value_size () in
  let sys = build_mutps (small_config ~index:Config.Hash ()) in
  let clients, _ = run_system sys ~spec ~horizon:5_000_000 ~clients:2 in
  check_bool "point ops fine on hash" true (Client.completed clients > 100)

let test_mutps_split_observability () =
  let kv = Mutps.create ~ncr:3 (small_config ()) in
  check_int "ncr" 3 (Mutps.ncr kv);
  check_int "nmr" 5 (Mutps.nmr kv);
  check_bool "settled" true (Mutps.reconfig_settled kv);
  Alcotest.check_raises "bad split" (Invalid_argument "Mutps.set_split")
    (fun () -> Mutps.set_split kv ~ncr:8);
  Alcotest.check_raises "bad ways" (Invalid_argument "Mutps.set_mr_ways")
    (fun () -> Mutps.set_mr_ways kv 0)

let test_mutps_reconfigure_under_load () =
  let spec = Ycsb.a ~keyspace ~value_size () in
  let sys = build_mutps ~ncr:2 (small_config ()) in
  let kv = Option.get sys.mutps in
  let failures = ref 0 in
  let clients =
    Client.start ~engine:sys.engine ~link:sys.link ~transport:sys.transport
      { Client.clients = 8; window = 2; spec; seed = 9;
        dispatch = Client.uniform_dispatch }
  in
  verify_values clients ~failures;
  Engine.run sys.engine ~until:10_000_000;
  let before = Client.completed clients in
  check_bool "progress before" true (before > 200);
  (* grow the CR layer mid-flight, then shrink it *)
  Mutps.set_split kv ~ncr:5;
  Engine.run sys.engine ~until:30_000_000;
  check_bool "settled after grow" true (Mutps.reconfig_settled kv);
  check_int "ncr grew" 5 (Mutps.ncr kv);
  let mid = Client.completed clients in
  check_bool "progress across grow" true (mid > before + 200);
  Mutps.set_split kv ~ncr:1;
  Engine.run sys.engine ~until:50_000_000;
  check_bool "settled after shrink" true (Mutps.reconfig_settled kv);
  check_bool "progress across shrink" true (Client.completed clients > mid + 200);
  check_int "no corruption through reconfigs" 0 !failures;
  (* reconfiguration must never leak or double a request *)
  check_exactly_once "across reconfigs" sys.engine clients

let test_mutps_hot_resize_under_load () =
  let spec =
    { (Ycsb.c ~keyspace ~value_size ()) with Opgen.key_dist = Opgen.Zipfian 0.99 }
  in
  let sys = build_mutps (small_config ()) in
  let kv = Option.get sys.mutps in
  let clients, _ = run_system sys ~spec ~horizon:20_000_000 ~clients:8 in
  ignore clients;
  let s1 = Mutps.hot_size kv in
  check_bool "hot set non-empty" true (s1 > 0);
  Mutps.set_hot_target kv 16;
  Engine.run sys.engine ~until:40_000_000;
  check_bool
    (Printf.sprintf "hot set shrank (%d -> %d)" s1 (Mutps.hot_size kv))
    true
    (Mutps.hot_size kv <= 16);
  (* disable entirely *)
  Mutps.set_hot_target kv 0;
  Engine.run sys.engine ~until:60_000_000;
  check_int "hot set empty" 0 (Mutps.hot_size kv)

let test_mutps_ways_applied () =
  let kv = Mutps.create ~ncr:2 (small_config ()) in
  Mutps.start kv;
  Mutps.set_mr_ways kv 3;
  check_int "ways recorded" 3 (Mutps.mr_ways kv);
  let hier = (Mutps.backend kv).Backend.hier in
  (* MR cores (2..7) restricted, CR cores full *)
  check_int "cr core full mask"
    (Mutps_mem.Hierarchy.full_llc_mask hier)
    (Mutps_mem.Hierarchy.clos hier ~core:0);
  check_int "mr core restricted" 0b111 (Mutps_mem.Hierarchy.clos hier ~core:5)

(* ------------------------------------------------------------------ *)
(* Cross-system comparisons (coarse sanity, not benchmarks)            *)
(* ------------------------------------------------------------------ *)

(* saturate the server: enough outstanding requests that throughput is
   bounded by server CPU, not by the closed loop *)
let throughput build ~spec =
  let sys = build (small_config ()) in
  let clients =
    Client.start ~engine:sys.engine ~link:sys.link ~transport:sys.transport
      { Client.clients = 48; window = 4; spec; seed = 9; dispatch = sys.dispatch }
  in
  Engine.run sys.engine ~until:20_000_000;
  Client.completed clients

let test_erpckv_suffers_under_skew () =
  (* share-nothing + mod-key dispatch must lose to share-everything under
     a strong hotspot (the §2.2.2 load-imbalance effect) *)
  let spec =
    { (Ycsb.c ~keyspace ~value_size ()) with Opgen.key_dist = Opgen.Zipfian 0.99 }
  in
  let base = throughput (build_rtc Rtc.basekv) ~spec in
  let erpc = throughput (build_rtc Rtc.erpckv) ~spec in
  check_bool
    (Printf.sprintf "basekv (%d) > erpckv (%d) under skew" base erpc)
    true (base > erpc)

(* ------------------------------------------------------------------ *)
(* Auto-tuner                                                          *)
(* ------------------------------------------------------------------ *)

let tuner_params =
  {
    Autotuner.window = 2_000_000;
    settle = 400_000;
    cache_step = 128;
    cache_points = 2;
    auto_threshold = infinity;
  }

let test_autotuner_pass_completes () =
  let spec =
    { (Ycsb.a ~keyspace ~value_size ()) with Opgen.key_dist = Opgen.Zipfian 0.99 }
  in
  let config = small_config ~cores:4 () in
  let kv = Mutps.create ~ncr:1 config in
  Backend.populate (Mutps.backend kv) ~keyspace ~value_size;
  Mutps.start kv;
  let tuner = Autotuner.create ~params:tuner_params kv in
  Autotuner.spawn tuner;
  let b = Mutps.backend kv in
  let _clients =
    Client.start ~engine:b.Backend.engine ~link:b.Backend.link
      ~transport:(Mutps.transport kv)
      { Client.clients = 32; window = 4;
        spec; seed = 3; dispatch = Client.uniform_dispatch }
  in
  Autotuner.trigger tuner;
  Engine.run b.Backend.engine ~until:120_000_000;
  check_bool "tune completed" true (Autotuner.tunes_completed tuner >= 1);
  (match Autotuner.last_applied tuner with
  | Some (ncr, hot, ways) ->
    check_bool "valid ncr" true (ncr >= 1 && ncr <= 3);
    check_bool "valid hot" true (hot >= 0 && hot <= config.Config.hot_k);
    check_bool "valid ways" true (ways >= 1 && ways <= 12);
    check_int "split applied" ncr (Mutps.ncr kv);
    check_int "ways applied" ways (Mutps.mr_ways kv)
  | None -> Alcotest.fail "nothing applied");
  check_bool "events recorded" true (List.length (Autotuner.events tuner) > 3);
  check_bool "settled after tuning" true (Mutps.reconfig_settled kv)

let test_autotuner_auto_trigger () =
  (* a throughput shift (load change) must arm a tuning pass *)
  let spec = Ycsb.c ~keyspace ~value_size () in
  let config = small_config ~cores:4 () in
  let kv = Mutps.create ~ncr:2 config in
  Backend.populate (Mutps.backend kv) ~keyspace ~value_size;
  Mutps.start kv;
  let tuner =
    Autotuner.create
      ~params:{ tuner_params with Autotuner.auto_threshold = 0.3 }
      kv
  in
  Autotuner.spawn tuner;
  let b = Mutps.backend kv in
  let clients =
    Client.start ~engine:b.Backend.engine ~link:b.Backend.link
      ~transport:(Mutps.transport kv)
      { Client.clients = 16; window = 2; spec; seed = 3;
        dispatch = Client.uniform_dispatch }
  in
  Engine.run b.Backend.engine ~until:10_000_000;
  (* shift the workload drastically: big values *)
  Client.set_spec clients (Ycsb.put_only ~keyspace ~value_size:1024 ());
  Engine.run b.Backend.engine ~until:150_000_000;
  check_bool "auto trigger fired" true (Autotuner.tunes_completed tuner >= 1)

let test_trisect_finds_peak () =
  (* white-box check through the public API: a tuner measuring a convex
     function must land on its peak; we emulate by tuning a 4-core system
     where more MR threads help (uniform large values) and checking the
     tuner does not pick an extreme CR-heavy split *)
  let spec = Ycsb.put_only_uniform ~keyspace ~value_size:512 () in
  let config = small_config ~cores:6 () in
  let kv = Mutps.create ~ncr:4 config in
  Backend.populate (Mutps.backend kv) ~keyspace ~value_size:512;
  Mutps.start kv;
  let tuner = Autotuner.create ~params:tuner_params kv in
  Autotuner.spawn tuner;
  let b = Mutps.backend kv in
  let _ =
    Client.start ~engine:b.Backend.engine ~link:b.Backend.link
      ~transport:(Mutps.transport kv)
      { Client.clients = 32; window = 4; spec; seed = 3;
        dispatch = Client.uniform_dispatch }
  in
  Autotuner.trigger tuner;
  Engine.run b.Backend.engine ~until:200_000_000;
  check_bool "tuned" true (Autotuner.tunes_completed tuner >= 1);
  (* uniform put-heavy: CR layer adds little; tuner should not starve MR *)
  check_bool
    (Printf.sprintf "nmr %d >= 2" (Mutps.nmr kv))
    true (Mutps.nmr kv >= 2)

(* ------------------------------------------------------------------ *)
(* Passive baselines                                                   *)
(* ------------------------------------------------------------------ *)

let test_passive_profiles () =
  let spec = Ycsb.c ~keyspace ~value_size:64 () in
  let r = Passive.evaluate Passive.Racehash ~spec ~clients:64 in
  Alcotest.(check (float 0.01)) "racehash get verbs" 2.0 r.Passive.verbs_per_op;
  let s = Passive.evaluate Passive.Sherman ~spec ~clients:64 in
  check_bool "sherman moves leaf-size bytes" true (s.Passive.bytes_per_op >= 1024.0)

let test_passive_client_scaling () =
  let spec = Ycsb.c ~keyspace ~value_size:64 () in
  let t8 = (Passive.evaluate Passive.Racehash ~spec ~clients:8).Passive.throughput_mops in
  let t64 = (Passive.evaluate Passive.Racehash ~spec ~clients:64).Passive.throughput_mops in
  let t4096 = (Passive.evaluate Passive.Racehash ~spec ~clients:4096).Passive.throughput_mops in
  let t8192 = (Passive.evaluate Passive.Racehash ~spec ~clients:8192).Passive.throughput_mops in
  check_bool "scales with clients at first" true (t64 > (7.0 *. t8));
  check_bool "saturates eventually" true (t8192 -. t4096 < 0.01 *. t4096 +. 1e-9)

let test_passive_sherman_bandwidth_bound_large () =
  let spec = Ycsb.c ~keyspace ~value_size:1024 () in
  let r = Passive.evaluate Passive.Sherman ~spec ~clients:100_000 in
  Alcotest.(check string) "bottleneck" "bandwidth" r.Passive.bottleneck

let test_passive_latency_grows_at_saturation () =
  let spec = Ycsb.c ~keyspace ~value_size:64 () in
  let low = Passive.evaluate Passive.Racehash ~spec ~clients:4 in
  let high = Passive.evaluate Passive.Racehash ~spec ~clients:100_000 in
  check_bool "queueing inflates latency" true
    (high.Passive.p50_latency_ns > 2.0 *. low.Passive.p50_latency_ns)

let test_passive_multi_rtt_latency () =
  let spec = Ycsb.c ~keyspace ~value_size:64 () in
  let r = Passive.evaluate Passive.Racehash ~spec ~clients:1 in
  (* 2 verbs × 2 us RTT = at least 4 us *)
  check_bool "at least two RTTs" true (r.Passive.p50_latency_ns >= 4000.0)


(* ------------------------------------------------------------------ *)
(* Determinism and reconfiguration stress                              *)
(* ------------------------------------------------------------------ *)

let completed_after build =
  let spec = Ycsb.a ~keyspace ~value_size () in
  let sys = build (small_config ()) in
  let clients, failures = run_system sys ~spec ~horizon:15_000_000 ~clients:8 in
  (Client.completed clients, failures)

let test_bitwise_determinism () =
  (* the whole stack is seeded: two identical runs must agree exactly *)
  List.iter
    (fun (name, build) ->
      let a, fa = completed_after build in
      let b, fb = completed_after build in
      check_int (name ^ " deterministic completions") a b;
      check_int (name ^ " deterministic failures") fa fb)
    [
      ("basekv", build_rtc Rtc.basekv);
      ("erpckv", build_rtc Rtc.erpckv);
      ("mutps", fun c -> build_mutps c);
    ]

let test_reconfig_stress_random () =
  (* fire a random storm of splits / hot resizes / way changes at a loaded
     system: it must keep serving, never corrupt a value, and settle *)
  let spec = Ycsb.a ~keyspace ~value_size () in
  let sys = build_mutps ~ncr:2 (small_config ()) in
  let kv = Option.get sys.mutps in
  let failures = ref 0 in
  let clients =
    Client.start ~engine:sys.engine ~link:sys.link ~transport:sys.transport
      { Client.clients = 8; window = 2; spec; seed = 9;
        dispatch = Client.uniform_dispatch }
  in
  verify_values clients ~failures;
  let rng = Rng.create 2024 in
  for step = 1 to 25 do
    (match Rng.int rng 3 with
    | 0 -> Mutps.set_split kv ~ncr:(1 + Rng.int rng 7)
    | 1 -> Mutps.set_hot_target kv (Rng.int rng 200)
    | _ -> Mutps.set_mr_ways kv (1 + Rng.int rng 12));
    Engine.run sys.engine ~until:(step * 2_000_000)
  done;
  let before = Client.completed clients in
  Engine.run sys.engine ~until:80_000_000;
  check_bool "settles eventually" true (Mutps.reconfig_settled kv);
  check_bool "still serving after storm" true
    (Client.completed clients > before + 200);
  check_int "no corruption through the storm" 0 !failures;
  check_exactly_once "through the storm" sys.engine clients

let () =
  Alcotest.run "kvs" ~and_exit:true
    [
      ( "end-to-end",
        [
          Alcotest.test_case "basekv" `Quick test_basekv_end_to_end;
          Alcotest.test_case "erpckv" `Quick test_erpckv_end_to_end;
          Alcotest.test_case "mutps tree" `Quick test_mutps_end_to_end;
          Alcotest.test_case "mutps hash" `Quick test_mutps_hash_end_to_end;
        ] );
      ( "mutps",
        [
          Alcotest.test_case "hot path engages" `Quick test_mutps_hot_path_engages;
          Alcotest.test_case "uniform forwards" `Quick test_mutps_uniform_mostly_forwards;
          Alcotest.test_case "scan workload" `Quick test_mutps_scan_workload;
          Alcotest.test_case "hash point-only" `Quick test_mutps_scan_rejected_on_hash;
          Alcotest.test_case "split observability" `Quick test_mutps_split_observability;
          Alcotest.test_case "reconfigure under load" `Quick test_mutps_reconfigure_under_load;
          Alcotest.test_case "hot resize under load" `Quick test_mutps_hot_resize_under_load;
          Alcotest.test_case "ways applied" `Quick test_mutps_ways_applied;
        ] );
      ( "comparisons",
        [
          Alcotest.test_case "erpc suffers under skew" `Quick test_erpckv_suffers_under_skew;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "bitwise determinism" `Quick test_bitwise_determinism;
          Alcotest.test_case "reconfig stress" `Quick test_reconfig_stress_random;
        ] );
      ( "autotuner",
        [
          Alcotest.test_case "pass completes" `Quick test_autotuner_pass_completes;
          Alcotest.test_case "auto trigger" `Quick test_autotuner_auto_trigger;
          Alcotest.test_case "finds peak" `Quick test_trisect_finds_peak;
        ] );
      ( "passive",
        [
          Alcotest.test_case "profiles" `Quick test_passive_profiles;
          Alcotest.test_case "client scaling" `Quick test_passive_client_scaling;
          Alcotest.test_case "sherman bandwidth" `Quick test_passive_sherman_bandwidth_bound_large;
          Alcotest.test_case "latency at saturation" `Quick test_passive_latency_grows_at_saturation;
          Alcotest.test_case "multi-rtt latency" `Quick test_passive_multi_rtt_latency;
        ] );
    ]
