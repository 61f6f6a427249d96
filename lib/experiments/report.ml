(** Structured experiment results.

    Every experiment returns a list of {!row}s — one per (grid cell,
    system) datapoint — instead of only printing.  Rows serialize to a
    *canonical* JSON document: object keys sorted, one row per line,
    floats rendered by a fixed idempotent formatter.  Because the DES is
    deterministic, two runs of the same build at the same scale produce
    byte-identical documents, so CI can gate on exact equality
    ([bench-compare --tolerance 0]) instead of noisy wall-clock
    thresholds. *)

type row = {
  experiment : string;
  system : string;  (** "" where no system axis applies (e.g. table1) *)
  axis : (string * string) list;  (** grid coordinates, e.g. size=64 *)
  metrics : (string * float) list;  (** mops, p50_us, ncr, ... *)
}

let by_key (a, _) (b, _) = String.compare a b

let row ~experiment ?(system = "") ~axis metrics =
  {
    experiment;
    system;
    axis = List.sort_uniq by_key axis;
    metrics = List.sort_uniq by_key metrics;
  }

let of_measurement ~experiment ~system ~axis (m : Harness.measurement) =
  row ~experiment ~system ~axis
    ([
       ("completed", float_of_int m.Harness.completed);
       ("cr_hit_rate", m.Harness.cr_hit_rate);
       ("mops", m.Harness.mops);
       ("p50_us", m.Harness.p50_us);
       ("p99_us", m.Harness.p99_us);
     ]
    @ m.Harness.extra)

let metric r name = List.assoc_opt name r.metrics

let metric_exn r name =
  match metric r name with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Report.metric_exn: %s/%s has no metric %S" r.experiment
         r.system name)

let find rows ~experiment ?(system = "") ~axis () =
  let axis = List.sort_uniq by_key axis in
  List.find_opt
    (fun r -> r.experiment = experiment && r.system = system && r.axis = axis)
    rows

let find_metric rows ~experiment ?system ~axis name =
  match find rows ~experiment ?system ~axis () with
  | Some r -> metric_exn r name
  | None ->
    invalid_arg
      (Printf.sprintf "Report.find_metric: no row %s %s" experiment
         (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) axis)))

(* ------------------------------------------------------------------ *)
(* Canonical JSON                                                      *)
(* ------------------------------------------------------------------ *)

(* Fixed-precision, idempotent float rendering: six decimal places, then
   trailing zeros (and a bare trailing dot) stripped.  Idempotence —
   [to_string (of_string (to_string v)) = to_string v] — is what makes
   the serialization canonical: re-encoding a parsed document reproduces
   it byte for byte. *)
let float_to_string v =
  if not (Float.is_finite v) then "0"
  else begin
    let s = Printf.sprintf "%.6f" v in
    let n = ref (String.length s) in
    while !n > 1 && s.[!n - 1] = '0' do
      decr n
    done;
    if !n > 1 && s.[!n - 1] = '.' then decr n;
    let s = String.sub s 0 !n in
    if s = "-0" then "0" else s
  end

let row_to_buffer b r =
  (* field order is fixed and alphabetical: axis, experiment, metrics,
     system *)
  Buffer.add_string b "{\"axis\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Mutps_trace.Json.escape b k;
      Buffer.add_string b "\":\"";
      Mutps_trace.Json.escape b v;
      Buffer.add_char b '"')
    (List.sort by_key r.axis);
  Buffer.add_string b "},\"experiment\":\"";
  Mutps_trace.Json.escape b r.experiment;
  Buffer.add_string b "\",\"metrics\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Mutps_trace.Json.escape b k;
      Buffer.add_string b "\":";
      Buffer.add_string b (float_to_string v))
    (List.sort by_key r.metrics);
  Buffer.add_string b "},\"system\":\"";
  Mutps_trace.Json.escape b r.system;
  Buffer.add_string b "\"}"

let schema = "mutps-bench/v1"

let to_json rows =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n\"schema\":\"%s\",\n\"rows\":[\n" schema;
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      row_to_buffer b r)
    rows;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_file path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json rows))

(* ------------------------------------------------------------------ *)
(* Reading a document back (through the shared parser, which accepts
   any JSON, so hand-edited baselines still load)                      *)
(* ------------------------------------------------------------------ *)

module Json = Mutps_trace.Json

exception Parse_error = Json.Parse_error

let row_of_json = function
  | Json.Obj fields ->
    let str name =
      match List.assoc_opt name fields with
      | Some (Json.Str s) -> s
      | _ -> raise (Parse_error ("row missing string field " ^ name))
    in
    let pairs name conv =
      match List.assoc_opt name fields with
      | Some (Json.Obj kvs) ->
        List.map
          (fun (k, v) ->
            match conv v with
            | Some x -> (k, x)
            | None -> raise (Parse_error ("bad value in " ^ name)))
          kvs
      | _ -> raise (Parse_error ("row missing object field " ^ name))
    in
    row ~experiment:(str "experiment") ~system:(str "system")
      ~axis:(pairs "axis" (function Json.Str s -> Some s | _ -> None))
      (pairs "metrics" (function Json.Num f -> Some f | _ -> None))
  | _ -> raise (Parse_error "row is not an object")

let of_json s =
  match Json.parse s with
  | Json.Obj fields ->
    (match List.assoc_opt "rows" fields with
    | Some (Json.Arr rows) -> List.map row_of_json rows
    | _ -> raise (Parse_error "document has no \"rows\" array"))
  | _ -> raise (Parse_error "document is not an object")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_json (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Result-file comparison (the bench-regression gate)                  *)
(* ------------------------------------------------------------------ *)

type drift =
  | Missing_row of row  (** in baseline, absent from current *)
  | Extra_row of row  (** in current, absent from baseline *)
  | Metric_drift of {
      base : row;
      name : string;
      expected : float;
      actual : float option;  (** [None]: metric missing from current *)
    }

let row_key r =
  let b = Buffer.create 64 in
  Buffer.add_string b r.experiment;
  Buffer.add_char b '|';
  Buffer.add_string b r.system;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '|';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    (List.sort by_key r.axis);
  Buffer.contents b

let row_label r =
  Printf.sprintf "%s%s {%s}" r.experiment
    (if r.system = "" then "" else " " ^ r.system)
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) r.axis))

(* Values travel through the canonical formatter on both sides, so exact
   comparison is performed on the canonical rendering: a baseline loaded
   from disk and a freshly measured value agree iff their canonical
   strings do. *)
let within ?(one_sided = false) ~tolerance expected actual =
  if tolerance <= 0.0 then
    float_to_string expected = float_to_string actual
  else if one_sided then
    (* regression gate: only a drop below the tolerated fraction of the
       baseline is drift; improvements always pass *)
    actual >= expected *. (1.0 -. tolerance)
  else
    Float.abs (expected -. actual)
    <= tolerance *. Float.max (Float.abs expected) (Float.abs actual)

let diff ?(one_sided = false) ?(tolerance = 0.0) ~baseline ~current () =
  let index rows = List.map (fun r -> (row_key r, r)) rows in
  let bidx = index baseline and cidx = index current in
  let drifts = ref [] in
  let push d = drifts := d :: !drifts in
  List.iter
    (fun (key, base) ->
      match List.assoc_opt key cidx with
      | None -> push (Missing_row base)
      | Some cur ->
        List.iter
          (fun (name, expected) ->
            match metric cur name with
            | None ->
              push (Metric_drift { base; name; expected; actual = None })
            | Some actual ->
              if not (within ~one_sided ~tolerance expected actual) then
                push
                  (Metric_drift { base; name; expected; actual = Some actual }))
          base.metrics;
        (* metrics present only in current are drift too: the schema of a
           gated experiment must not change silently *)
        List.iter
          (fun (name, actual) ->
            if metric base name = None then
              push
                (Metric_drift
                   { base = cur; name; expected = Float.nan;
                     actual = Some actual }))
          cur.metrics)
    bidx;
  List.iter
    (fun (key, cur) ->
      if List.assoc_opt key bidx = None then push (Extra_row cur))
    cidx;
  List.rev !drifts

let drift_to_string = function
  | Missing_row r -> Printf.sprintf "missing row: %s" (row_label r)
  | Extra_row r -> Printf.sprintf "extra row: %s" (row_label r)
  | Metric_drift { base; name; expected; actual = None } ->
    Printf.sprintf "%s %s: metric missing (baseline %s)" (row_label base) name
      (float_to_string expected)
  | Metric_drift { base; name; expected; actual = Some actual } ->
    if Float.is_nan expected then
      Printf.sprintf "%s %s: metric not in baseline (current %s)"
        (row_label base) name (float_to_string actual)
    else
      let pct =
        if Float.abs expected > 1e-12 then
          Printf.sprintf " (%+.2f%%)" (100.0 *. ((actual /. expected) -. 1.0))
        else ""
      in
      Printf.sprintf "%s %s: baseline %s, current %s%s" (row_label base) name
        (float_to_string expected) (float_to_string actual) pct
