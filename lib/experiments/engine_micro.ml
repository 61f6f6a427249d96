(* Engine micro-benchmarks: the scheduler alone, and the fig2a hot loop.
   They report the two numbers the zero-allocation certifier exists to
   drive: GC words allocated per dispatched event, and simulated cycles
   retired per CPU second.

   Each case yields a gate row and a perf row.  The gate row holds what is
   a pure function of the code (events, simulated cycles or completed
   requests, words per event), so it is compared bit-exact against
   test/golden/engine_gate.json.  The perf row holds the wall-clock rates,
   which `mutps-cli trajectory` gates one-sided. *)

module Engine = Mutps_sim.Engine

(* CPU seconds: the engine loop is single-threaded, so CPU time is the
   wall time of interest and is less noisy under co-tenancy *)
let cpu_time () = (Sys.time () [@lint.allow "R1"])

(* Runs [window ()] and reports the deltas across it alone, so setup and
   warmup allocations do not dilute words per event.  [Gc.minor_words]
   counts the live minor heap too; OCaml 5.1's [quick_stat] field only
   counts it at each minor collection, so that figure moved by whole minor
   heaps with GC pacing ([OCAMLRUNPARAM=o]).  Direct major allocations are
   left out for the same reason: their share still moved with pacing.

   A case with clients gates on the requests its fixed window completed;
   a scheduler case, whose schedule decides when it ends, on simulated
   cycles. *)
let measure ~case ?(system = "") ?completed engine window =
  let count = Option.value completed ~default:(fun () -> 0) in
  let d0 = Engine.dispatched engine and s0 = Engine.now engine in
  let c0 = count () in
  let w0 = Gc.minor_words () and t0 = cpu_time () in
  window ();
  let t1 = cpu_time () and w1 = Gc.minor_words () in
  let events = float_of_int (Engine.dispatched engine - d0) in
  let sim_cycles = float_of_int (Engine.now engine - s0) in
  let ops = float_of_int (count () - c0) in
  let wall_s = t1 -. t0 in
  (* rounded to two places, as the golden stores it *)
  let words = Float.round ((w1 -. w0) /. events *. 100.) /. 100. in
  let row case =
    Report.row ~experiment:"engine_micro" ~system ~axis:[ ("case", case) ]
  in
  let gated, rates =
    match completed with
    | Some _ -> (("completed", ops), [ ("ops_per_sec", ops /. wall_s) ])
    | None -> (("sim_cycles", sim_cycles), [])
  in
  ( row case [ ("events", events); ("minor_words_per_event", words); gated ],
    row (case ^ "_perf")
      ([
         ("wall_s", wall_s);
         ("events_per_sec", events /. wall_s);
         ("sim_cycles_per_sec", sim_cycles /. wall_s);
         ("minor_words_per_event", words);
       ]
      @ rates) )

(* A standing population of self-rescheduling events.  1,024 reschedule
   within a 64-cycle horizon (calendar-wheel territory); [far] more jump
   64K-1M cycles ahead on every firing, which keeps the overflow heap and
   its migration back into the wheel on the measured path.  One closure
   per kind is allocated up front and reused, and the delays are mixed
   from a counter rather than drawn from Rng (whose Int64 draws would
   allocate), so the measured allocations belong to push/pop/dispatch. *)
let sched ~case ~far =
  let events = 1_000_000 and near = 1_024 in
  let engine = Engine.create () in
  let remaining = ref (events - near - far) in
  let seq = ref 0 in
  let rec fire_near () =
    if !remaining > 0 then begin
      decr remaining;
      incr seq;
      Engine.schedule_after engine ~delay:(1 + (!seq * 0x9E37 land 0x3F))
        fire_near
    end
  in
  let rec fire_far () =
    if !remaining > 0 then begin
      decr remaining;
      incr seq;
      Engine.schedule_after engine
        ~delay:(65_536 + (!seq * 0x2545F49 land 0xFFFFF))
        fire_far
    end
  in
  for i = 1 to near do
    Engine.schedule_after engine ~delay:(i land 0x3F) fire_near
  done;
  for i = 1 to far do
    Engine.schedule_after engine ~delay:(65_536 + (i * 8_191)) fire_far
  done;
  measure ~case engine (fun () -> Engine.run_all engine)

(* The fig2a hot loop (uniform 64 B gets against μTPS) past the harness's
   warmup, at the scale the golden was recorded at: MUTPS_BENCH_SCALE=0.02,
   fixed so that the rows do not depend on the environment. *)
let fig2a () =
  let scale = Harness.scaled 0.02 in
  let spec =
    Mutps_workload.Ycsb.get_only_uniform ~keyspace:scale.Harness.keyspace
      ~value_size:64 ()
  in
  let built = Harness.build Harness.Mutps scale spec in
  let clients = Harness.start_clients built scale spec in
  let engine = built.Harness.engine in
  Engine.run engine ~until:scale.Harness.warmup;
  measure ~case:"fig2a_hot_loop" ~system:"uTPS"
    ~completed:(fun () -> Mutps_net.Client.completed clients)
    engine
    (fun () ->
      Engine.run engine ~until:(scale.Harness.warmup + scale.Harness.measure))

(** The three cases, each as (gate row, perf row), in order: push/pop
    churn (the scheduler with no far-future events), the scheduler's
    near/far mix, and the fig2a hot loop. *)
let run () =
  let churn = sched ~case:"push_pop_churn" ~far:0 in
  let mix = sched ~case:"sched_micro" ~far:64 in
  [ churn; mix; fig2a () ]
