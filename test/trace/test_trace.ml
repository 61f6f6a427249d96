(* Tests for the observability layer (lib/trace): the collector, the
   Perfetto exporter, the metrics registry, the cycle profiler — and the
   subsystem's core promise, that attaching it does not perturb the
   simulation. *)

module Engine = Mutps_sim.Engine
module Simthread = Mutps_sim.Simthread
module Env = Mutps_mem.Env
module Hierarchy = Mutps_mem.Hierarchy
module Trace = Mutps_trace.Trace
module Metrics = Mutps_trace.Metrics
module Perfetto = Mutps_trace.Perfetto
module Profile = Mutps_trace.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* The exporters' output is validated structurally, through the shared
   JSON reader, rather than by substring matching. *)

module Json = Mutps_trace.Json

let mem k = function Json.Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Json.Str s -> s | _ -> Alcotest.fail "not a string"
let num = function Json.Num f -> f | _ -> Alcotest.fail "not a number"

(* ------------------------------------------------------------------ *)
(* Driving a small simulation through the instrumented Env             *)
(* ------------------------------------------------------------------ *)

(* Two threads doing tagged work, an instant and three counter tracks:
   everything the exporter has to render, at unit-test cost. *)
let small_sim () =
  let engine = Engine.create () in
  let hier = Hierarchy.create (Hierarchy.small_geometry ~cores:2) in
  for core = 0 to 1 do
    Simthread.spawn engine
      ~name:(Printf.sprintf "worker-%d" core)
      (fun ctx ->
        let env = Env.make ~ctx ~hier ~core in
        for i = 0 to 9 do
          Env.tagged env "outer" (fun () ->
              Env.compute env 100;
              Env.tagged env "inner" (fun () ->
                  Env.load env ~addr:(core * 4096) ~size:64));
          if i = 5 then
            Env.instant env ~name:"milestone" ~arg:(string_of_int i);
          Env.counter env ~track:(Printf.sprintf "track-%d" (i mod 3))
            ~value:(float_of_int i);
          Env.commit env
        done)
  done;
  Engine.run_all engine;
  engine

let test_collector_basics () =
  let engine, traces = Trace.traced small_sim in
  check_int "one engine traced" 1 (List.length traces);
  let t = List.hd traces in
  check_int "engine id matches" (Engine.id engine) (Trace.engine_id t);
  check_int "two threads" 2 (Trace.thread_count t);
  check_string "thread 0 name" "worker-0" (Trace.thread_name t 0);
  check_string "events track" "events" (Trace.thread_name t (-1));
  (* 2 threads x 10 iterations x (outer + inner) *)
  check_int "slices" 40 (Trace.slice_count t);
  check_int "instants" 2 (Trace.instant_count t);
  check_int "counters" 20 (Trace.counter_count t);
  check_int "nothing dropped" 0 (Trace.dropped t);
  check_bool "cycles attributed" true (Trace.profile_total t > 0);
  (* slices nest: every inner lies within some outer on the same track *)
  Trace.iter_slices t (fun s ->
      check_bool "slice has positive span" true Trace.(s.s_t1 > s.s_t0))

let test_trace_off_is_off () =
  (* without [traced], engines get no tracer and hooks stay disengaged *)
  let engine = small_sim () in
  check_bool "no tracer attached" true (Engine.tracer engine = None)

let test_event_cap () =
  let _, traces =
    Trace.traced ~max_events:10 (fun () -> ignore (small_sim ()))
  in
  let t = List.hd traces in
  let kept =
    Trace.slice_count t + Trace.instant_count t + Trace.counter_count t
  in
  check_int "capped" 10 kept;
  check_int "rest counted" (40 + 2 + 20 - 10) (Trace.dropped t);
  (* the profile is exempt from the cap *)
  check_bool "profile still complete" true (Trace.profile_total t > 0)

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)
(* ------------------------------------------------------------------ *)

let test_perfetto_valid_json () =
  let engine, traces = Trace.traced small_sim in
  let json = Perfetto.to_json traces in
  let root = Json.parse json in
  let events =
    match mem "traceEvents" root with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let ph e = match mem "ph" e with Some v -> str v | None -> "" in
  let slices = List.filter (fun e -> ph e = "X") events in
  let counters = List.filter (fun e -> ph e = "C") events in
  let instants = List.filter (fun e -> ph e = "i") events in
  let metas = List.filter (fun e -> ph e = "M") events in
  check_int "slices exported" 40 (List.length slices);
  check_int "instants exported" 2 (List.length instants);
  check_int "counter samples exported" 20 (List.length counters);
  (* process metadata + events track + one thread_name per thread *)
  check_int "metadata records" 4 (List.length metas);
  let distinct_counter_tracks =
    List.sort_uniq compare
      (List.map
         (fun e -> str (Option.get (mem "name" e)))
         counters)
  in
  check_bool "at least 3 counter tracks" true
    (List.length distinct_counter_tracks >= 3);
  List.iter
    (fun e ->
      check_int "slice pid is engine id" (Engine.id engine)
        (int_of_float (num (Option.get (mem "pid" e))));
      check_bool "slice tid is a thread track" true
        (let tid = int_of_float (num (Option.get (mem "tid" e))) in
         tid = 1 || tid = 2);
      check_bool "dur non-negative" true
        (num (Option.get (mem "dur" e)) >= 0.0))
    slices;
  (* ts is cycles scaled to microseconds at the given clock *)
  let json2 = Perfetto.to_json ~ghz:1.0 traces in
  check_bool "clock rate changes timestamps" true (json2 <> json)

let test_perfetto_escaping () =
  let _, traces =
    Trace.traced (fun () ->
        let engine = Engine.create () in
        let hier = Hierarchy.create (Hierarchy.small_geometry ~cores:1) in
        Simthread.spawn engine ~name:"evil \"name\"\\" (fun ctx ->
            let env = Env.make ~ctx ~hier ~core:0 in
            Env.tagged env "site \"quoted\"" (fun () -> Env.compute env 5);
            Env.instant env ~name:"inst" ~arg:"line1\nline2";
            Env.commit env);
        Engine.run_all engine)
  in
  let json = Perfetto.to_json traces in
  match Json.parse json with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "escaped JSON did not parse to an object"

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let reg = Metrics.create () in
  let hits = ref 0 in
  Metrics.set_scope reg "sysA";
  Metrics.register reg ~kind:Metrics.Counter ~subsystem:"cache" ~name:"hits"
    (fun () -> float_of_int !hits);
  Metrics.set_scope reg "sysB";
  Metrics.register reg ~subsystem:"ring" ~name:"occupancy" (fun () -> 3.5);
  check_int "two entries" 2 (Metrics.size reg);
  hits := 7;
  let csv = Metrics.to_csv reg in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 2 rows" 3 (List.length lines);
  check_string "header" "scope,subsystem,name,kind,value" (List.hd lines);
  check_string "counter row read late" "sysA,cache,hits,counter,7"
    (List.nth lines 1);
  check_string "gauge row" "sysB,ring,occupancy,gauge,3.5" (List.nth lines 2);
  (* track names carry the scope prefix *)
  match Metrics.entries reg with
  | [ a; b ] ->
    check_string "track name" "sysA/cache.hits" (Metrics.track_name a);
    check_string "track name" "sysB/ring.occupancy" (Metrics.track_name b)
  | _ -> Alcotest.fail "entries"

let test_metrics_json_valid () =
  let reg = Metrics.create () in
  Metrics.register reg ~subsystem:"odd \"names\"" ~name:"inf" (fun () ->
      Float.infinity);
  Metrics.register reg ~subsystem:"s" ~name:"v" (fun () -> 1.25);
  match Json.parse (Metrics.to_json reg) with
  | Json.Arr [ a; _ ] ->
    (* non-finite values must still be parseable (rendered as 0) *)
    check_bool "inf rendered finite" true
      (num (Option.get (mem "value" a)) = 0.0)
  | _ -> Alcotest.fail "metrics JSON shape"

let test_metrics_sampled_into_counters () =
  let reg = Metrics.create () in
  Metrics.set_current (Some reg);
  Fun.protect ~finally:(fun () -> Metrics.set_current None) @@ fun () ->
  let _, traces =
    (* tiny sampling period so the 100-cycle slices trip it *)
    Trace.traced ~sample_every:50 (fun () ->
        let engine = Engine.create () in
        Metrics.register reg ~engine_id:(Engine.id engine) ~subsystem:"s"
          ~name:"level" (fun () -> 42.0);
        let hier = Hierarchy.create (Hierarchy.small_geometry ~cores:1) in
        Simthread.spawn engine ~name:"w" (fun ctx ->
            let env = Env.make ~ctx ~hier ~core:0 in
            for _ = 1 to 20 do
              Env.tagged env "work" (fun () -> Env.compute env 100);
              Env.commit env
            done);
        Engine.run_all engine)
  in
  let t = List.hd traces in
  let found = ref false in
  Trace.iter_counters t (fun c ->
      if c.Trace.c_track = "s.level" && c.Trace.c_value = 42.0 then
        found := true);
  check_bool "metric sampled into a counter track" true !found

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

let test_profile_folded () =
  let _, traces = Trace.traced small_sim in
  let folded = Profile.folded traces in
  check_bool "has stacks" true (List.length folded > 0);
  (* nested site shows as thread;outer;inner *)
  check_bool "nested stack present" true
    (List.mem_assoc "worker-0;outer;inner" folded);
  check_bool "outer-only cycles present" true
    (List.mem_assoc "worker-0;outer" folded);
  (* sorted by stack key *)
  let keys = List.map fst folded in
  check_bool "sorted" true (keys = List.sort String.compare keys);
  (* totals agree with the collector *)
  let sum = List.fold_left (fun a (_, c) -> a + c) 0 folded in
  check_int "mass conserved" (Profile.total traces) sum;
  (* text form: "stack cycles" per line *)
  let text = Profile.to_text traces in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i ->
        check_bool "count parses" true
          (int_of_string_opt
             (String.sub line (i + 1) (String.length line - i - 1))
          <> None)
      | None -> Alcotest.fail "no count on profile line")
    (String.split_on_char '\n' (String.trim text))

(* ------------------------------------------------------------------ *)
(* Batched charge accounting: observation equivalence                  *)
(* ------------------------------------------------------------------ *)

(* The Env batches traced-mode cycle charges per site path and flushes at
   site boundaries and commits (lib/mem/env.ml).  [tr_cycles] carries no
   timestamp, so per-(thread, site-stack) totals must be bit-identical
   whether every access reports individually (batching off) or as summed
   batches (batching on, the default).  These tests pin that down. *)

let batching_sim set_mode () =
  let engine = Engine.create () in
  let hier = Hierarchy.create (Hierarchy.small_geometry ~cores:2) in
  for core = 0 to 1 do
    Simthread.spawn engine
      ~name:(Printf.sprintf "worker-%d" core)
      (fun ctx ->
        let env = Env.make ~ctx ~hier ~core in
        for i = 0 to 19 do
          set_mode env i;
          Env.tagged env "outer" (fun () ->
              Env.compute env 75;
              Env.load env ~addr:((core * 8192) + (i * 64)) ~size:64;
              Env.tagged env "inner" (fun () ->
                  Env.store env ~addr:((core * 8192) + (i * 64)) ~size:8;
                  Env.load_speculative env ~addr:(core * 8192) ~size:64));
          Env.commit env
        done)
  done;
  Engine.run_all engine

let profile_of set_mode =
  let _, traces = Trace.traced (batching_sim set_mode) in
  let t = List.hd traces in
  (Trace.profile_total t, Trace.profile_entries t)

let test_batching_totals_identical () =
  let total_on, entries_on =
    profile_of (fun env _ ->
        check_bool "batching is the default" true (Env.trace_batching env);
        Env.set_trace_batching env true)
  in
  let total_off, entries_off =
    profile_of (fun env _ -> Env.set_trace_batching env false)
  in
  check_bool "cycles attributed" true (total_on > 0);
  check_int "profile totals identical" total_off total_on;
  check_int "same stack count" (List.length entries_off)
    (List.length entries_on);
  List.iter2
    (fun (stack_off, cycles_off) (stack_on, cycles_on) ->
      check_string "stack key" stack_off stack_on;
      check_int
        (Printf.sprintf "cycles under %s" stack_off)
        cycles_off cycles_on)
    entries_off entries_on

let test_batching_midrun_toggle_lossless () =
  (* flipping the mode mid-run flushes the pending batch at the switch:
     nothing is lost or double-counted relative to either pure mode *)
  let total_on, entries_on =
    profile_of (fun env _ -> Env.set_trace_batching env true)
  in
  let total_mix, entries_mix =
    profile_of (fun env i -> Env.set_trace_batching env (i mod 3 <> 0))
  in
  check_int "totals identical" total_on total_mix;
  check_bool "per-site entries identical" true (entries_on = entries_mix)

(* ------------------------------------------------------------------ *)
(* Determinism: the tentpole guarantee                                 *)
(* ------------------------------------------------------------------ *)

let capture_stdout f =
  let tmp = Filename.temp_file "trace_digest" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush Stdlib.stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let finish () =
    flush Stdlib.stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  Fun.protect ~finally:finish f;
  let ic = open_in_bin tmp in
  let len = in_channel_length ic in
  let out = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  out

let tiny_scale =
  {
    Mutps_experiments.Harness.keyspace = 1_500;
    cores = 4;
    clients = 16;
    window = 2;
    warmup = 150_000;
    measure = 400_000;
    sample = None;
  }

let test_fig2a_traced_untraced_identical () =
  (* the same seed must produce bit-identical experiment output whether or
     not the full observability stack is attached: collectors never
     schedule events, charge cycles, or mutate simulation state *)
  let run_plain () =
    capture_stdout (fun () ->
        ignore (Mutps_experiments.Fig2.run_2a tiny_scale))
  in
  let run_traced () =
    let reg = Metrics.create () in
    Metrics.set_current (Some reg);
    Fun.protect ~finally:(fun () -> Metrics.set_current None) @@ fun () ->
    let out, traces =
      Trace.traced (fun () ->
          capture_stdout (fun () ->
              ignore (Mutps_experiments.Fig2.run_2a tiny_scale)))
    in
    check_bool "engines collected" true (List.length traces > 1);
    check_bool "events recorded" true
      (List.exists (fun t -> Trace.slice_count t > 0) traces);
    check_bool "metrics registered" true (Metrics.size reg > 0);
    out
  in
  let plain = run_plain () in
  let traced = run_traced () in
  let plain2 = run_plain () in
  check_bool "fig2a output non-trivial" true (String.length plain > 100);
  (* the run itself is reproducible in-process... *)
  check_string "untraced digest reproducible" (Digest.to_hex (Digest.string plain))
    (Digest.to_hex (Digest.string plain2));
  (* ...and tracing does not shift a single byte of it *)
  check_string "traced digest identical"
    (Digest.to_hex (Digest.string plain))
    (Digest.to_hex (Digest.string traced))

let () =
  Alcotest.run "trace"
    [
      ( "collector",
        [
          Alcotest.test_case "basics" `Quick test_collector_basics;
          Alcotest.test_case "off by default" `Quick test_trace_off_is_off;
          Alcotest.test_case "event cap" `Quick test_event_cap;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "valid JSON" `Quick test_perfetto_valid_json;
          Alcotest.test_case "escaping" `Quick test_perfetto_escaping;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry + CSV" `Quick test_metrics_registry;
          Alcotest.test_case "JSON valid" `Quick test_metrics_json_valid;
          Alcotest.test_case "sampled into counters" `Quick
            test_metrics_sampled_into_counters;
        ] );
      ( "profile",
        [ Alcotest.test_case "folded stacks" `Quick test_profile_folded ] );
      ( "charge batching",
        [
          Alcotest.test_case "per-site totals identical on/off" `Quick
            test_batching_totals_identical;
          Alcotest.test_case "mid-run toggle lossless" `Quick
            test_batching_midrun_toggle_lossless;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig2a traced = untraced" `Slow
            test_fig2a_traced_untraced_identical;
        ] );
    ]
