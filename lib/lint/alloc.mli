(** Interprocedural zero-allocation certifier for the DES hot path
    (rule family A, complementing the determinism rules R1-R4 in {!Lint}).

    Functions annotated [let[@hot] f ...] are hot roots; everything
    reachable from them through the call graph is the {e hot set} and must
    not touch the OCaml heap:

    - {b A1} — heap allocation: closures, tuples, records, variant and
      polymorphic-variant payloads, array literals, [ref] cells, [lazy],
      first-class modules, allocating stdlib calls ([Array.make],
      [Printf.sprintf], [^], [@], ...), partial applications, and calls to
      qualified names the analysis can neither resolve nor prove safe.
    - {b A2} — boxing: float arithmetic, [Int64]/[Int32]/[Nativeint]
      operations, and polymorphic [compare]/[min]/[max]/[Hashtbl.hash]
      (which box or walk representations at runtime).
    - {b A3} — observability escapes: [Printf]/[Format]/[print_*]/[Buffer]
      calls, which both allocate and drag I/O machinery onto the hot path.

    Two structural exemptions keep the certification honest rather than
    suppression-riddled:

    - {e diverging calls}: argument subtrees of [invalid_arg], [failwith],
      [raise], [exit] are exempt — an error path that terminates the
      simulation may build its message.
    - {e trace guards}: the [Some]-branch of a match on [tr t] / [san t] /
      [Engine.tracer] / [Engine.sanitizer] is exempt and does not extend
      the hot set — the zero-cost-when-{e off} contract only constrains
      the [None] path.

    Anything else must be annotated [(e [@alloc.allow "reason"])] at the
    covering expression or [[\@\@alloc.allow]] at the binding; there is
    no file-level scope, so a [[\@\@\@alloc.allow]] is never used.  The
    sites join the shared {!Lint.allow_registry}, so stale ones surface
    with the other families.

    The analysis walks the Parsetree (a client of {!World}, like
    {!Interp}), so it is syntactic: calls through closures and record
    fields are trusted opaque, and unqualified unresolved names are
    assumed local and safe.  The companion runtime test
    (test/sim, [Gc.minor_words] delta over an event churn) backstops the
    approximation. *)

type result = {
  findings : Lint.finding list;  (** rules "A1" | "A2" | "A3", sorted *)
  hot_roots : string list;  (** keys of [\[@hot\]]-annotated bindings *)
  hot_set : string list;  (** every function certified (roots + reachable) *)
  allow_sites : Lint.allow_site list;
      (** every [\[@alloc.allow\]] in the world's registry, with use
          counts; a site with [as_uses = 0] is stale *)
}

val check_project : World.t -> result
(** Certify the world's hot set. *)
