(** The JSON string escaper shared by every JSON writer of the runtime
    libraries ({!Metrics}, {!Perfetto} and the [mutps-bench/v1] documents
    of [Mutps_experiments.Report]), and the one JSON reader: what
    [Report.of_json] loads documents with and the trace tests check the
    writers' output with. *)

val escape : Buffer.t -> string -> unit
(** Append [s] as the body of a JSON string literal: quote and backslash
    behind a backslash, the short forms [\n], [\t] and [\r], [\u00XX] for
    every other control character, and all other bytes verbatim. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

exception Parse_error of string
(** The reason and the byte offset where parsing stopped. *)

val parse : string -> t
(** Parse one JSON document (any JSON, not only the writers' canonical
    renderings; [\u] escapes in the BMP decode to UTF-8).  Raises
    {!Parse_error} on malformed input or trailing garbage. *)
