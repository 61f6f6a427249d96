(* Tests for the experiment harness's pure parts: the registry, table
   rendering, and scale handling; plus the engine gate's counts. *)

open Mutps_experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_registry_complete () =
  (* every table and figure of the paper's evaluation must be present *)
  let expected =
    [ "table1"; "fig2a"; "fig2b"; "fig2c"; "fig7"; "fig8a"; "fig8bc";
      "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14" ]
  in
  List.iter
    (fun name ->
      check_bool (name ^ " registered") true (Registry.find name <> None))
    expected;
  check_int "exactly the paper's experiments" (List.length expected)
    (List.length Registry.all)

let test_registry_names_unique () =
  let names = Registry.names () in
  check_int "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_find_missing () =
  check_bool "unknown name" true (Registry.find "fig99" = None)

let test_table_rendering () =
  let t = Table.create [ "col"; "value" ] in
  Table.add_row t [ "a"; "1.00" ];
  Table.add_row t [ "long-name"; "2.50" ];
  let buf_name = Filename.temp_file "table" ".txt" in
  let out = open_out buf_name in
  Table.print ~out t;
  close_out out;
  let ic = open_in buf_name in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove buf_name;
  let lines = List.rev !lines in
  check_int "header + rule + 2 rows" 4 (List.length lines);
  (* all data lines align: same length modulo trailing spaces *)
  (match lines with
  | header :: _ ->
    check_bool "header mentions both columns" true
      (String.length header >= String.length "col  value")
  | [] -> Alcotest.fail "no output");
  check_bool "rows preserved in order" true
    (match lines with
    | _ :: _ :: r1 :: r2 :: _ ->
      String.length r1 > 0
      && r1.[0] = 'a'
      && String.sub r2 0 9 = "long-name"
    | _ -> false)

let test_cells () =
  Alcotest.(check string) "float cell" "3.14" (Table.cell_f 3.1416);
  Alcotest.(check string) "int cell" "42" (Table.cell_i 42)

let test_scale_fields_sane () =
  let s = Harness.default_scale in
  check_bool "keyspace positive" true (s.Harness.keyspace > 0);
  check_bool "cores >= 2" true (s.Harness.cores >= 2);
  check_bool "warmup < measure * 2" true (s.Harness.warmup < 2 * s.Harness.measure)

(* MUTPS_BENCH_SCALE comes from outside the program: a factor scales the
   default keyspace and windows, anything but a finite positive number is
   refused with a message naming the variable *)
let test_scale_from_env () =
  let with_scale v f =
    Unix.putenv "MUTPS_BENCH_SCALE" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "MUTPS_BENCH_SCALE" "") f
  in
  with_scale "0.02" (fun () ->
      match Harness.scale_from_env () with
      | Ok s ->
        check_int "keyspace" 4_000 s.Harness.keyspace;
        check_int "measure" 500_000 s.Harness.measure;
        check_int "clients keep their floor" 48 s.Harness.clients
      | Error msg -> Alcotest.fail msg);
  List.iter
    (fun v ->
      with_scale v (fun () ->
          match Harness.scale_from_env () with
          | Ok _ -> Alcotest.failf "MUTPS_BENCH_SCALE=%s accepted" v
          | Error msg ->
            check_bool (v ^ ": message names the variable") true
              (String.starts_with ~prefix:"MUTPS_BENCH_SCALE" msg)))
    [ "abc"; "-1"; "0"; "nan"; "inf" ]

let test_system_names () =
  Alcotest.(check string) "mutps" "uTPS" (Harness.system_name Harness.Mutps);
  Alcotest.(check string) "basekv" "BaseKV" (Harness.system_name Harness.Basekv);
  Alcotest.(check string) "erpckv" "eRPC-KV" (Harness.system_name Harness.Erpckv)

let test_populate_size () =
  let fixed = Mutps_workload.Ycsb.a ~keyspace:100 ~value_size:777 () in
  check_int "fixed size" 777 (Harness.populate_size fixed);
  let etc = Mutps_workload.Etc.spec ~keyspace:100 ~get_ratio:0.5 () in
  check_bool "etc mean in band" true
    (let m = Harness.populate_size etc in
     m > 30 && m < 200)

(* --- Report: canonical rows, JSON round-trip, drift detection --- *)

let sample_rows =
  [
    (* axis and metrics deliberately given out of order: the smart
       constructor must canonicalize *)
    Report.row ~experiment:"figX" ~system:"uTPS"
      ~axis:[ ("size", "64"); ("index", "tree") ]
      [ ("p99_us", 12.5); ("mops", 3.25) ];
    Report.row ~experiment:"figX" ~system:"BaseKV"
      ~axis:[ ("index", "tree"); ("size", "64") ]
      [ ("mops", 1.75) ];
    Report.row ~experiment:"tableY" ~axis:[]
      [ ("ratio", 0.799835); ("zero", 0.0); ("neg", -0.25) ];
  ]

let test_report_canonical_order () =
  match sample_rows with
  | r :: _ ->
    Alcotest.(check (list string))
      "axis keys sorted" [ "index"; "size" ]
      (List.map fst r.Report.axis);
    Alcotest.(check (list string))
      "metric keys sorted" [ "mops"; "p99_us" ]
      (List.map fst r.Report.metrics)
  | [] -> assert false

let test_report_float_format () =
  let f = Report.float_to_string in
  Alcotest.(check string) "integral" "3" (f 3.0);
  Alcotest.(check string) "trailing zeros stripped" "0.25" (f 0.25);
  Alcotest.(check string) "six places kept" "0.799835" (f 0.799835);
  Alcotest.(check string) "negative zero" "0" (f (-0.0));
  Alcotest.(check string) "non-finite" "0" (f Float.infinity);
  (* idempotent: formatting a re-parsed value reproduces the string *)
  List.iter
    (fun v ->
      let s = f v in
      Alcotest.(check string) ("idempotent " ^ s) s (f (float_of_string s)))
    [ 3.0; 0.25; 0.799835; 1032.453462; -0.125; 1e-7 ]

let test_report_json_roundtrip () =
  let json = Report.to_json sample_rows in
  let rows' = Report.of_json json in
  check_int "row count survives" (List.length sample_rows)
    (List.length rows');
  (* serialize(parse(serialize x)) = serialize x: the representation is
     canonical, so CI can compare files byte for byte *)
  Alcotest.(check string) "canonical fixpoint" json (Report.to_json rows')

let test_report_json_rejects_garbage () =
  check_bool "garbage rejected" true
    (match Report.of_json "{\"schema\":\"mutps-bench/v1\",\"rows\":[" with
    | exception Report.Parse_error _ -> true
    | _ -> false)

let test_report_diff () =
  let base = sample_rows in
  check_int "no drift on identical" 0
    (List.length (Report.diff ~baseline:base ~current:base ()));
  (* a metric change is exactly one drift *)
  let bumped =
    List.map
      (fun (r : Report.row) ->
        if r.Report.system = "uTPS" then
          Report.row ~experiment:r.Report.experiment ~system:r.Report.system
            ~axis:r.Report.axis
            (List.map
               (fun (k, v) -> (k, if k = "mops" then v +. 0.01 else v))
               r.Report.metrics)
        else r)
      base
  in
  (match Report.diff ~baseline:base ~current:bumped () with
  | [ Report.Metric_drift { name; _ } ] ->
    Alcotest.(check string) "drifted metric" "mops" name
  | ds -> Alcotest.failf "expected one metric drift, got %d" (List.length ds));
  (* ...and is forgiven under a loose relative tolerance *)
  check_int "tolerance forgives" 0
    (List.length (Report.diff ~tolerance:0.1 ~baseline:base ~current:bumped ()));
  (* a dropped row is a Missing_row, an added one an Extra_row *)
  (match Report.diff ~baseline:base ~current:(List.tl base) () with
  | [ Report.Missing_row _ ] -> ()
  | _ -> Alcotest.fail "expected missing row");
  match Report.diff ~baseline:(List.tl base) ~current:base () with
  | [ Report.Extra_row _ ] -> ()
  | _ -> Alcotest.fail "expected extra row"

(* --- Runner: domain fan-out must not change results --- *)

let runner_scale =
  {
    Harness.keyspace = 1_000;
    cores = 4;
    clients = 8;
    window = 2;
    warmup = 50_000;
    measure = 150_000;
    sample = None;
  }

let test_runner_jobs_deterministic () =
  let names = [ "table1"; "fig2b" ] in
  let serial = Runner.run_all ~jobs:1 names runner_scale in
  let fanned = Runner.run_all ~jobs:4 names runner_scale in
  check_int "no failures serial" 0 (List.length (Runner.failed serial));
  check_int "no failures fanned" 0 (List.length (Runner.failed fanned));
  (* rows AND captured text agree byte for byte across job counts *)
  Alcotest.(check string)
    "rows identical"
    (Report.to_json (Runner.rows serial))
    (Report.to_json (Runner.rows fanned));
  List.iter2
    (fun (a : Runner.outcome) (b : Runner.outcome) ->
      Alcotest.(check string) (a.Runner.name ^ " name") a.Runner.name
        b.Runner.name;
      Alcotest.(check string)
        (a.Runner.name ^ " output")
        a.Runner.output b.Runner.output)
    serial fanned

let test_runner_unknown_name () =
  check_bool "unknown name raises before running" true
    (match Runner.run_all [ "table1"; "fig99" ] runner_scale with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- the engine gate's deterministic counts --- *)

(* dune exec runs us from the root, dune runtest inside test/experiments;
   the root's path is tried first, as it cannot name a file outside the
   checkout *)
let engine_gate_path =
  let root = "test/golden/engine_gate.json" in
  if Sys.file_exists root then root else "../golden/engine_gate.json"

(* Events, simulated cycles and completed requests must equal the golden.
   Words per event are left to CI's check under two GC pacings, which
   runs on the compiler version the golden was recorded with. *)
let test_engine_gate_counts () =
  let counts =
    List.map (fun (r : Report.row) ->
        { r with
          Report.metrics =
            List.remove_assoc "minor_words_per_event" r.Report.metrics })
  in
  let baseline = counts (Report.read_file engine_gate_path) in
  let current = counts (List.map fst (Engine_micro.run ())) in
  check_int "one row per case" 3 (List.length baseline);
  match Report.diff ~baseline ~current () with
  | [] -> ()
  | drifts ->
    Alcotest.fail (String.concat "; " (List.map Report.drift_to_string drifts))

let test_mk_config_scales_geometry () =
  (* below ~500K keys the geometry sits on its floor; above it scales *)
  let small = Harness.mk_config { Harness.default_scale with Harness.keyspace = 500_000 } in
  let big = Harness.mk_config { Harness.default_scale with Harness.keyspace = 2_000_000 } in
  match (small.Mutps_kvs.Config.geometry, big.Mutps_kvs.Config.geometry) with
  | Some gs, Some gb ->
    check_bool "LLC grows with keyspace" true
      (gb.Mutps_mem.Hierarchy.llc_sets > gs.Mutps_mem.Hierarchy.llc_sets)
  | _ -> Alcotest.fail "scaled geometry expected"

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "unique" `Quick test_registry_names_unique;
          Alcotest.test_case "find missing" `Quick test_registry_find_missing;
        ] );
      ( "table",
        [
          Alcotest.test_case "rendering" `Quick test_table_rendering;
          Alcotest.test_case "cells" `Quick test_cells;
        ] );
      ( "harness",
        [
          Alcotest.test_case "scale sane" `Quick test_scale_fields_sane;
          Alcotest.test_case "scale from env" `Quick test_scale_from_env;
          Alcotest.test_case "system names" `Quick test_system_names;
          Alcotest.test_case "populate size" `Quick test_populate_size;
          Alcotest.test_case "scaled geometry" `Quick test_mk_config_scales_geometry;
        ] );
      ( "report",
        [
          Alcotest.test_case "canonical order" `Quick test_report_canonical_order;
          Alcotest.test_case "float format" `Quick test_report_float_format;
          Alcotest.test_case "json round-trip" `Quick test_report_json_roundtrip;
          Alcotest.test_case "json rejects garbage" `Quick
            test_report_json_rejects_garbage;
          Alcotest.test_case "diff" `Quick test_report_diff;
        ] );
      ( "engine micro",
        [ Alcotest.test_case "gate counts" `Quick test_engine_gate_counts ] );
      ( "runner",
        [
          Alcotest.test_case "unknown name" `Quick test_runner_unknown_name;
          Alcotest.test_case "jobs=4 matches jobs=1" `Slow
            test_runner_jobs_deterministic;
        ] );
    ]
