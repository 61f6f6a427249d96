(** The JSON string escaper shared by every JSON writer of the runtime
    libraries: {!Metrics}, {!Perfetto} and the [mutps-bench/v1] documents
    of [Mutps_experiments.Report]. *)

val escape : Buffer.t -> string -> unit
(** Append [s] as the body of a JSON string literal: quote and backslash
    behind a backslash, the short forms [\n], [\t] and [\r], [\u00XX] for
    every other control character, and all other bytes verbatim. *)
