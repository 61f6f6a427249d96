(* Chrome trace-event JSON ("JSON Array Format" with a traceEvents
   wrapper), loadable in ui.perfetto.dev and chrome://tracing.

   Mapping: one Perfetto process per simulated engine (pid = Engine.id),
   one thread track per simulated thread (tid = trace id + 1; tid 0 is
   the engine's global events/counters track).  Simulated cycles become
   microseconds at the configured clock rate, so the timeline reads in
   wall units of the simulated machine. *)

let add_ts b ~ghz cycles =
  (* microseconds with sub-nanosecond resolution at realistic clocks *)
  Printf.bprintf b "%.4f" (float_of_int cycles /. (ghz *. 1000.0))

let to_json ?(ghz = 2.5) traces =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char b ',' in
  let meta ~pid ~tid ~kind ~value =
    sep ();
    Printf.bprintf b "{\"ph\":\"M\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\""
      kind pid tid;
    Json.escape b value;
    Buffer.add_string b "\"}}"
  in
  List.iter
    (fun tr ->
      let pid = Trace.engine_id tr in
      meta ~pid ~tid:0 ~kind:"process_name"
        ~value:(Printf.sprintf "engine-%d" pid);
      meta ~pid ~tid:0 ~kind:"thread_name" ~value:"events";
      let tid = ref 0 in
      Trace.iter_threads tr (fun name ->
          incr tid;
          meta ~pid ~tid:!tid ~kind:"thread_name" ~value:name);
      Trace.iter_slices tr (fun (s : Trace.slice) ->
          sep ();
          Printf.bprintf b
            "{\"ph\":\"X\",\"cat\":\"sim\",\"pid\":%d,\"tid\":%d,\"ts\":" pid
            (s.Trace.s_tid + 1);
          add_ts b ~ghz s.Trace.s_t0;
          Buffer.add_string b ",\"dur\":";
          add_ts b ~ghz (s.Trace.s_t1 - s.Trace.s_t0);
          Buffer.add_string b ",\"name\":\"";
          Json.escape b s.Trace.s_name;
          Buffer.add_string b "\"}");
      Trace.iter_instants tr (fun (i : Trace.instant) ->
          sep ();
          Printf.bprintf b
            "{\"ph\":\"i\",\"cat\":\"sim\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":"
            pid
            (i.Trace.i_tid + 1);
          add_ts b ~ghz i.Trace.i_time;
          Buffer.add_string b ",\"name\":\"";
          Json.escape b i.Trace.i_name;
          Buffer.add_string b "\",\"args\":{\"info\":\"";
          Json.escape b i.Trace.i_arg;
          Buffer.add_string b "\"}}");
      Trace.iter_counters tr (fun (c : Trace.counter) ->
          sep ();
          Printf.bprintf b "{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"ts\":" pid;
          add_ts b ~ghz c.Trace.c_time;
          Buffer.add_string b ",\"name\":\"";
          Json.escape b c.Trace.c_track;
          Buffer.add_string b "\",\"args\":{\"value\":";
          Buffer.add_string b (Metrics.value_to_string c.Trace.c_value);
          Buffer.add_string b "}}"))
    traces;
  Buffer.add_string b "]}";
  Buffer.contents b

let write_file ?ghz path traces =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ?ghz traces))
