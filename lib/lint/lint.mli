(** The lint passes' vocabulary: findings, the suppression registry, the
    R rules' tables and the helpers every pass shares.

    The rules are judged over one closed world ({!World}), in four
    families, each individually suppressible with [[\@lint.allow "R<n>"]]
    (expression), [[\@\@lint.allow "R<n>"]] (binding) or
    [[\@\@\@lint.allow "R<n>"]] (rest of the structure):

    - [R1] — no wall clock, no ambient randomness, no unordered hash-table
      traversal whose order can leak into simulated state.
    - [R2] — outside [lib/mem], memory traffic must be charged through
      [Env]; direct [Hierarchy.load]/[store]/[prefetch_batch] is forbidden.
    - [R3] — reads of registered shared-mutable fields (seqlock versions,
      ring cursors, forwarding completion fields) must be dominated by a
      commit-family call.
    - [R4] — [Simthread] effects only from simulated-thread contexts; no
      [Obj.magic]; no physical equality.

    {!Interp} judges all four; {!Alloc} (A1-A3) and {!Dom} (D1-D4) are
    the other two passes over the same world. *)

type finding = {
  rule : string;  (** "R1" .. "R4", "A1" .. "A3", "D1" .. "D4" *)
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
    (attribute, file, line) so that passes walking the same attribute
    share a single use counter.  A site whose [as_uses] stays [0] covered
    no finding: it is stale and should be deleted
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

val allow_sites : allow_registry -> allow_site list
(** All registered sites, ordered by (file, line). *)

val stale_allow_sites : allow_registry -> allow_site list
(** Sites with zero uses. *)

val parse_implementation : string -> Parsetree.structure
(** Parse one implementation file (raises [Syntaxerr.Error] / [Sys_error]),
    for a {!World.source}. *)

(**/**)

(** Vocabulary shared with the passes ({!World} and its clients). *)
module Internal : sig
  val wallclock_idents : string list
  val unordered_traversals : string list
  val hierarchy_traffic : string list
  val shared_fields : (string * string) list
  val commit_family : string list
  val simthread_ops : string list
  val forbidden_obj : string list
  val strip_stdlib : string -> string
  val matches : string -> string -> bool
  val matches_any : string list -> string -> bool
  val path_of_lid : Longident.t -> string

  val payload_string : Parsetree.payload -> string option
  (** The string constant of a suppression attribute: its rule list or
      its reason. *)

  val register :
    allow_registry -> file:string -> Parsetree.attribute -> allow_site
  (** The registry site of one suppression attribute, of any family.
      Idempotent on (attribute, file, line), so use counts accumulate
      across passes. *)

  val in_dir : string -> string -> bool
  (** [in_dir dir path]: [dir] occurs in [path] as whole components — a
      prefix ["dir/"] or an infix ["/dir/"]. *)

  val finding : string -> file:string -> Location.t -> string -> finding
  val use : allow_site -> unit
  (** Count one finding suppressed by the site. *)
end

(**/**)
