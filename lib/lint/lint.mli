(** Determinism & charge-discipline analyzer for the simulation sources.

    Parses implementation files with compiler-libs and enforces four rule
    families, each individually suppressible with [[\@lint.allow "R<n>"]]
    (expression), [[\@\@lint.allow "R<n>"]] (binding) or
    [[\@\@\@lint.allow "R<n>"]] (rest of file):

    - [R1] — no wall clock, no ambient randomness, no unordered hash-table
      traversal whose order can leak into simulated state.
    - [R2] — outside [lib/mem], memory traffic must be charged through
      [Env]; direct [Hierarchy.load]/[store]/[prefetch_batch] is forbidden.
    - [R3] — reads of registered shared-mutable fields (seqlock versions,
      ring cursors, forwarding completion fields) must be dominated by a
      commit-family call.  Judged over the call graph by
      {!Interp.check_project} alone; this module checks R1, R2 and R4.
    - [R4] — [Simthread] effects only from simulated-thread contexts; no
      [Obj.magic]; no physical equality. *)

type finding = {
  rule : string;  (** "R1" .. "R4" *)
  file : string;
  line : int;
  col : int;
  msg : string;
}

val pp_finding : Format.formatter -> finding -> unit
(** Renders ["file:line:col: [RULE] message"]. *)

val finding_to_string : finding -> string
val compare_finding : finding -> finding -> int

(** {1 Suppression sites}

    Every suppression attribute ([[\@lint.allow]], [[\@alloc.allow]],
    [[\@dom.allow]]) a pass walks registers one {!allow_site}, keyed by
    (attribute, file, line) so that passes sharing the same source (per-file
    + interprocedural) share a single use counter.  A site whose [as_uses]
    stays [0] covered no finding: it is stale and should be deleted
    ([bin/lint_main --strict-suppressions] fails on it). *)

type allow_site = {
  as_attr : string;  (** attribute name, e.g. ["lint.allow"] *)
  as_file : string;
  as_line : int;
  as_payload : string;  (** raw payload text (rule list or reason) *)
  mutable as_uses : int;  (** findings this site suppressed *)
}

type allow_registry

val new_allow_registry : unit -> allow_registry

val register_allow :
  allow_registry ->
  attr:string ->
  file:string ->
  line:int ->
  payload:string ->
  allow_site
(** Idempotent on (attr, file, line): re-registration returns the existing
    site, so use counts accumulate across passes. *)

val allow_sites : allow_registry -> allow_site list
(** All registered sites, ordered by (file, line). *)

val stale_allow_sites : allow_registry -> allow_site list
(** Sites with zero uses. *)

val check_file : ?rule_path:string -> string -> (finding list, string) result
(** Lint one [.ml] file with the per-file rules (R1, R2, R4).  [rule_path]
    overrides the path used for directory-scoped exemptions (e.g. the
    [lib/mem] R2 exemption) — useful for fixture files standing in for
    sources elsewhere in the tree.  [Error] is a parse/IO failure, not a
    finding. *)

val check_string :
  ?file:string -> ?rule_path:string -> string -> (finding list, string) result
(** Same, over source text (for tests). *)

val check_structure :
  ?file:string ->
  ?rule_path:string ->
  ?on_suppressed:(rule:string -> loc:Location.t -> unit) ->
  ?registry:allow_registry ->
  Parsetree.structure ->
  finding list
(** [on_suppressed] fires instead of a finding when an [[\@lint.allow]]
    covers it — suppression accounting for drivers (default: ignore).
    [registry] additionally tracks each suppression attribute as an
    {!allow_site} with per-site use counts for stale reporting. *)

val parse_implementation : string -> Parsetree.structure
(** Parse one implementation file (raises [Syntaxerr.Error] / [Sys_error]);
    lets drivers parse once and share the AST with {!Interp}. *)

(**/**)

(** Vocabulary shared with the project passes ({!World} and its clients). *)
module Internal : sig
  val matches : string -> string -> bool
  val matches_any : string list -> string -> bool
  val path_of_lid : Longident.t -> string
  val strip_stdlib : string -> string

  val in_dir : string -> string -> bool
  (** [in_dir dir path]: [dir] occurs in [path] as whole components — a
      prefix ["dir/"] or an infix ["/dir/"]. *)

  val commit_family : string list
  val shared_fields : (string * string) list
  val hierarchy_traffic : string list

  val allow_entries :
    ?registry:allow_registry ->
    file:string ->
    Parsetree.attributes ->
    (Set.Make(String).t * allow_site option) list

  val register :
    allow_registry -> file:string -> Parsetree.attribute -> allow_site
  (** The registry site of one suppression attribute, of any family. *)

  val finding : string -> file:string -> Location.t -> string -> finding
  val use : allow_site -> unit
  (** Count one finding suppressed by the site. *)
end

(**/**)
