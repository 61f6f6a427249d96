(* The perf ledger: one command that measures both clocks of the KVS —
   the native effect-fiber server on real sockets and the μTPS simulator —
   end to end, or per layer with --trace 1.  See README.md.

     ledger.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                [--json FILE] [--out DIR] [--smoke]

   Rounds go round-robin over the chosen workloads, so each one samples
   the whole run instead of one phase of the host.  The last line of
   stdout is one JSON object: correct, attempted, failed and the metrics
   with their units.  Any failed check exits non-zero, after the
   document is written. *)

open Cmdliner
module Clock = Mutps_native.Clock
module Report = Mutps_experiments.Report

type plan = {
  rounds : int;
  native : Native_bench.params;
  micro_ns : int;  (** wall-time budget of each micro-measurement *)
  seconds : float;  (** a simulated workload starts no round past this *)
  smoke : bool;
}

(* --seconds is the measured time per workload: three rounds of a warm
   trial (50K requests, about half a second) plus three timed trials.
   The smoke run is a toy: one round of 0.3 s trials and a 1 ms
   simulated window. *)
let plan ~seconds ~smoke =
  if smoke then
    {
      rounds = 1;
      native = { Native_bench.warm_ops = 5_000; trial_s = 0.3; trials = 3 };
      micro_ns = 5_000_000;
      seconds = 0.0;
      smoke;
    }
  else
    let rounds = 3 in
    let trial_s = Float.max 0.1 (((seconds /. float_of_int rounds) -. 0.5) /. 3.0) in
    {
      rounds;
      native = { Native_bench.warm_ops = 50_000; trial_s; trials = 3 };
      micro_ns = 50_000_000;
      seconds;
      smoke;
    }

type acc = {
  w : Spec.workload;
  kept : Native_bench.spans;
  mutable native : Native_bench.round list;
  mutable plain : (string * float) list list;  (** simulated datapoints *)
  mutable traced : (string * float) list list;
  mutable errors : string list;  (** simulated datapoints that failed *)
  mutable busy_ns : int;
}

type outcome = {
  workload : Spec.workload;
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  problems : string list;
}

let in_layers prefixes name = List.exists (fun prefix -> String.starts_with ~prefix name) prefixes
let native_layers = [ "client."; "server."; "split."; "sched." ]
let model_layers = [ "hier."; "nic."; "link."; "kvs."; "crmr."; "profile." ]
let sim_layers = [ "engine."; "gc." ] @ model_layers

(* Layers a workload's clock never runs read 0. *)
let absent prefixes =
  List.filter_map
    (fun m -> if in_layers prefixes m.Spec.m_name then Some (m.Spec.m_name, 0.0) else None)
    Spec.per_layer

let get = Host.metric

let micros (w : Spec.workload) ~seed ~plan =
  Micro.resp w ~seed ~budget_ns:plan.micro_ns
  @ Micro.exec w ~seed ~budget_ns:plan.micro_ns
  @ Micro.runtime ~budget_ns:plan.micro_ns

let finish_native a ~seed ~plan ~trace =
  let rounds = a.native in
  let per_layer =
    if not trace then []
    else begin
      let layers = Native_bench.per_layer rounds @ micros a.w ~seed ~plan in
      (* what the client waited for beyond the KVS work the server does
         per request: transport hand-off, sequencer, poller and kernel *)
      let kvs_ns =
        get "resp.parse_ns" layers +. get "resp.encode_ns" layers
        +. (a.w.Spec.get *. get "exec.get_ns" layers)
        +. ((1.0 -. a.w.Spec.get) *. get "exec.set_ns" layers)
      in
      (("server.residual_us", get "client.wait_us" layers -. (kvs_ns /. 1e3)) :: layers) @ absent sim_layers
    end
  in
  {
    workload = a.w;
    metrics = Native_bench.end_to_end rounds @ per_layer;
    attempted = List.fold_left (fun n r -> n + r.Native_bench.sent) 0 rounds;
    failed = List.fold_left (fun n r -> n + r.Native_bench.failed) 0 rounds;
    problems = List.filter_map (fun r -> r.Native_bench.error) rounds;
  }

(* Simulated outputs are a function of the seed alone: every round, and
   the traced datapoint too, must reproduce them exactly. *)
let deterministic = [ "ops_per_s"; "p50_us"; "p99_us"; "engine.events_per_op"; "attempted" ]

let finish_sim a ~seed ~plan ~trace =
  let points = a.plain @ a.traced in
  let drifted =
    List.filter_map
      (fun name ->
        match List.sort_uniq Float.compare (List.map (get name) points) with
        | [ _ ] -> None
        | _ -> Some (Printf.sprintf "deterministic %s differs across datapoints" name))
      deterministic
  in
  let over pts f name = f (List.map (get name) pts) in
  let first = match a.plain with p :: _ -> p | [] -> [] in
  let cpu_ns_per_op, host_ns_per_event = Sim_bench.host_cost a.plain in

  let e2e =
    [
      ("ops_per_s", get "ops_per_s" first);
      ("p50_us", get "p50_us" first);
      ("cpu_ns_per_op", cpu_ns_per_op);
      ("rss_mb", over a.plain Samples.median "rss_mb");
      ("setup_s", Sim_bench.setup_s a.plain);
    ]
  in
  let per_layer =
    match (trace, a.traced) with
    | false, _ | true, [] -> []
    | true, t :: _ ->
      List.filter (fun (name, _) -> in_layers model_layers name) t
      @ [
          ("latency.p99_us", get "p99_us" first);
          ("engine.events_per_op", get "engine.events_per_op" first);
          ("engine.host_ns_per_event", host_ns_per_event);
          ("gc.minor_words_per_op", get "gc.minor_words_per_op" first);
          ("gc.major_words_per_op", get "gc.major_words_per_op" first);
          ("trace.overhead_frac", (fst (Sim_bench.host_cost a.traced) /. cpu_ns_per_op) -. 1.0);
        ]
      @ micros a.w ~seed ~plan @ absent native_layers
  in
  let total name = List.fold_left (fun n p -> n + int_of_float (get name p)) 0 points in
  {
    workload = a.w;
    metrics = e2e @ per_layer;
    attempted = total "attempted";
    failed = total "failed";
    problems = a.errors @ drifted;
  }

let run_rounds accs ~self ~placement ~out ~seed ~trace ~plan =
  for round_no = 0 to plan.rounds - 1 do
    List.iter
      (fun a ->
        let t0 = Clock.now_ns () in
        (match a.w.Spec.system with
        | Spec.Native _ ->
          let r =
            Native_bench.round a.w ~self ~placement ~out ~seed ~round_no ~params:plan.native ~trace
              ~kept:a.kept
          in
          a.native <- a.native @ [ r ]
        | Spec.Sim _ ->
          (* a datapoint is fixed work: past two of them, stop once the
             workload has had its --seconds *)
          if List.length (a.plain @ a.traced) < 2 || float_of_int a.busy_ns /. 1e9 < plan.seconds then begin
            let datapoint traced =
              match Sim_bench.round a.w ~self ~placement ~seed ~traced ~smoke:plan.smoke with
              | Ok m -> if traced then a.traced <- a.traced @ [ m ] else a.plain <- a.plain @ [ m ]
              | Error e -> a.errors <- a.errors @ [ e ]
            in
            datapoint false;
            if trace then datapoint true
          end);
        a.busy_ns <- a.busy_ns + (Clock.now_ns () - t0))
      accs
  done

(* ---- output ----------------------------------------------------------- *)

(* Only the metrics of the mode that ran: end-to-end ones untraced,
   per-layer ones traced. *)
let reported ~trace =
  List.map (fun m -> m.Spec.m_name) (if trace then Spec.per_layer else Spec.end_to_end)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* The driver's line: one workload's metrics by name, several workloads'
   as "<workload>.<metric>". *)
let result_line outcomes ~correct ~trace =
  let single = match outcomes with [ _ ] -> true | _ -> false in
  let entries =
    List.concat_map
      (fun o ->
        List.map
          (fun name ->
            let key = if single then name else o.workload.Spec.name ^ "." ^ name in
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" key
              (json_number (get name o.metrics))
              (Option.value ~default:"" (Spec.unit_of name)))
          (reported ~trace))
      outcomes
  in
  let sum f = List.fold_left (fun n o -> n + f o) 0 outcomes in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    (sum (fun o -> o.attempted))
    (sum (fun o -> o.failed))
    (String.concat ", " entries)

let rows outcomes ~trace =
  List.map
    (fun o ->
      let clock = match o.workload.Spec.system with Spec.Native _ -> "native" | Spec.Sim _ -> "sim" in
      Report.row ~experiment:"ledger" ~system:clock
        ~axis:[ ("workload", o.workload.Spec.name); ("mode", if trace then "trace" else "plain") ]
        (("attempted", float_of_int o.attempted)
        :: ("failed_frac", Samples.ratio o.failed o.attempted)
        :: o.metrics))
    outcomes

let print_table outcomes =
  List.iter
    (fun o ->
      Printf.printf "== %s: %d attempted, %d failed\n" o.workload.Spec.name o.attempted o.failed;
      List.iter
        (fun (name, v) ->
          Printf.printf "  %-36s %14.4f %s\n" name v (Option.value ~default:"" (Spec.unit_of name)))
        o.metrics;
      List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) o.problems)
    outcomes

(* Every metric the contract names must be present and a number. *)
let incomplete outcomes ~trace =
  let expected = List.map (fun m -> m.Spec.m_name) (if trace then Spec.end_to_end @ Spec.per_layer else Spec.end_to_end) in
  List.concat_map
    (fun o ->
      List.filter_map
        (fun name ->
          if Float.is_finite (get name o.metrics) then None
          else Some (Printf.sprintf "%s: metric %s missing" o.workload.Spec.name name))
        expected)
    outcomes

(* The smoke check also reads the document back: one row per workload,
   none with failures.  [incomplete] has checked the metrics in it. *)
let smoke_check outcomes ~trace =
  let doc = Report.of_json (Report.to_json (rows outcomes ~trace)) in
  if List.length doc <> List.length Spec.workloads then [ "smoke: not every workload has a row" ]
  else
    List.filter_map
      (fun (r : Report.row) ->
        if Report.metric r "failed_frac" = Some 0.0 then None else Some (Report.row_label r ^ ": failed_frac is not 0"))
      doc

let workload_of name =
  match Spec.find_workload name with
  | Some w -> w
  | None ->
    Printf.eprintf "ledger: unknown workload %s\n%!" name;
    exit 2

let main workloads seed seconds trace json out smoke =
  let workloads = if workloads = [] then Spec.workloads else List.map workload_of workloads in
  let trace = trace <> 0 || smoke in
  let plan = plan ~seconds ~smoke in
  let placement = Host.placement () in
  Host.pin_self placement;
  Host.mkdir_p out;
  let accs =
    List.map
      (fun w -> { w; kept = Native_bench.spans (); native = []; plain = []; traced = []; errors = []; busy_ns = 0 })
      workloads
  in
  run_rounds accs ~self:Sys.executable_name ~placement ~out ~seed ~trace ~plan;
  let outcomes =
    List.map
      (fun a ->
        match a.w.Spec.system with
        | Spec.Native _ -> finish_native a ~seed ~plan ~trace
        | Spec.Sim _ -> finish_sim a ~seed ~plan ~trace)
      accs
  in
  if trace then
    List.iter
      (fun a ->
        if Samples.length a.kept.Native_bench.start > 0 then begin
          let path = Filename.concat out (a.w.Spec.name ^ ".client-spans.json") in
          Native_bench.write_spans path a.kept;
          Printf.eprintf "ledger: client spans -> %s\n%!" path
        end)
      accs;
  print_table outcomes;
  Option.iter (fun path -> Report.write_file path (rows outcomes ~trace)) json;
  let problems =
    List.concat_map (fun o -> List.map (fun p -> o.workload.Spec.name ^ ": " ^ p) o.problems) outcomes
    @ incomplete outcomes ~trace
    @ if smoke then smoke_check outcomes ~trace else []
  in
  List.iter (Printf.eprintf "ledger: %s\n%!") problems;
  let correct = problems = [] && List.for_all (fun o -> o.failed = 0) outcomes in
  print_endline (result_line outcomes ~correct ~trace);
  if not correct then exit 1

(* ---- command line ----------------------------------------------------- *)

let workload_name = Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME")

let main_term =
  let workloads =
    Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run (repeatable; default: all).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed of every op stream.") in
  let seconds =
    Arg.(value & opt float 24.0 & info [ "seconds" ] ~doc:"Measured seconds per workload (three rounds).")
  in
  let trace = Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1" ~doc:"1: report the per-layer metrics.") in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write a mutps-bench/v1 document.")
  in
  let out =
    Arg.(value & opt string "bench/ledger/_out" & info [ "out" ] ~docv:"DIR" ~doc:"Sockets and client-span traces.")
  in
  let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"Toy-size traced run of every check.") in
  Term.(const main $ workloads $ seed $ seconds $ trace $ json $ out $ smoke)

let serve_cmd =
  let listen = Arg.(required & opt (some string) None & info [ "listen" ] ~docv:"PATH") in
  Cmd.v (Cmd.info "serve" ~doc:"(internal) The native server child.")
    Term.(const (fun w listen -> Native_bench.serve (workload_of w) ~listen) $ workload_name $ listen)

let sim_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  let traced = Arg.(value & opt int 0 & info [ "traced" ]) in
  let smoke = Arg.(value & flag & info [ "smoke" ]) in
  Cmd.v (Cmd.info "sim" ~doc:"(internal) One simulated datapoint.")
    Term.(
      const (fun w seed traced smoke -> Sim_bench.datapoint (workload_of w) ~seed ~traced:(traced <> 0) ~smoke)
      $ workload_name $ seed $ traced $ smoke)

let benchmark_json_cmd =
  Cmd.v (Cmd.info "benchmark-json" ~doc:"Print BENCHMARK.json.")
    Term.(const (fun () -> print_string (Spec.benchmark_json ())) $ const ())

let () =
  let info = Cmd.info "ledger" ~doc:"The mutps perf ledger: native serving and simulator speed." in
  exit (Cmd.eval (Cmd.group ~default:main_term info [ serve_cmd; sim_cmd; benchmark_json_cmd ]))
