(** Structured experiment results: rows, canonical JSON, and result-file
    comparison for the CI bench-regression gate.

    The DES is deterministic, so serialized rows are bit-reproducible for
    a given build and scale; [diff ~tolerance:0.0] therefore gates on
    exact metric equality rather than noisy wall-clock thresholds. *)

type row = {
  experiment : string;  (** registry name, e.g. "fig7" *)
  system : string;  (** "uTPS", "BaseKV", ...; "" if not applicable *)
  axis : (string * string) list;  (** grid coordinates, sorted by key *)
  metrics : (string * float) list;  (** named values, sorted by key *)
}

val row :
  experiment:string -> ?system:string -> axis:(string * string) list ->
  (string * float) list -> row
(** Smart constructor: sorts [axis] and the metric list by key. *)

val of_measurement :
  experiment:string -> system:string -> axis:(string * string) list ->
  Harness.measurement -> row
(** A row carrying the harness's standard metrics: completed,
    cr_hit_rate, mops, p50_us, p99_us — plus the measurement's [extra]
    metrics (sampled runs: [*_err] error bounds and [sample_*]
    bookkeeping). *)

val metric : row -> string -> float option
val metric_exn : row -> string -> float

val find :
  row list -> experiment:string -> ?system:string ->
  axis:(string * string) list -> unit -> row option

val find_metric :
  row list -> experiment:string -> ?system:string ->
  axis:(string * string) list -> string -> float
(** Lookup used by the text renderers; raises [Invalid_argument] when the
    row is absent. *)

(** {1 Canonical JSON} *)

val schema : string
(** Document schema tag, ["mutps-bench/v1"]. *)

val float_to_string : float -> string
(** The fixed idempotent formatter: ["%.6f"] with trailing zeros
    stripped; non-finite values render as ["0"]. *)

val to_json : row list -> string
(** Canonical document: sorted keys, one row per line, byte-reproducible
    for equal rows. *)

val write_file : string -> row list -> unit

exception Parse_error of string
(** [Mutps_trace.Json.Parse_error], re-exported: catching either catches
    both. *)

val of_json : string -> row list
(** Accepts any JSON document with the {!schema} shape (not only the
    canonical rendering); raises {!Parse_error}. *)

val read_file : string -> row list

(** {1 Comparison} *)

type drift =
  | Missing_row of row
  | Extra_row of row
  | Metric_drift of {
      base : row;
      name : string;
      expected : float;
      actual : float option;
    }

val diff :
  ?one_sided:bool -> ?tolerance:float -> baseline:row list ->
  current:row list -> unit -> drift list
(** Rows are keyed by (experiment, system, axis).  With [tolerance] 0
    (the default) metric values must agree exactly (canonical renderings
    equal); otherwise a relative tolerance
    [|e - a| <= tolerance * max |e| |a|] applies.  With [one_sided]
    (the perf-trajectory gate) only [actual < expected * (1 - tolerance)]
    counts as drift — higher-is-better metrics may improve freely. *)

val drift_to_string : drift -> string
val row_label : row -> string
