(** Interprocedural charge-discipline analysis.

    Builds a call graph over a closed world of parsed implementation files
    and judges two of {!Lint}'s rules across function boundaries:

    - [R3] — a read of a registered shared-mutable field is reported only
      when it is not lexically commit-dominated {e and} its enclosing
      function is {e exposed}: reachable with uncommitted cycles because
      it is an entry point, escapes as a closure, or has a call site that
      is not commit-dominated (least fixpoint over the call graph).  This
      is the only R3 rule; it proves helpers whose every call site has
      already committed, and in a one-file world treats every function
      with no call site as an entry point.
    - [R2] — a call (from [lib/]) into a function that transitively
      performs raw [Hierarchy] traffic outside [lib/mem] — i.e. a leak
      through a helper whose own direct access was locally suppressed —
      is reported at the call site.

    Both report kinds reuse the rule names ["R3"]/["R2"], so the usual
    [[\@lint.allow]] suppressions apply at the read or call site. *)

val check_project :
  ?on_suppressed:(rule:string -> loc:Location.t -> unit) ->
  World.t ->
  Lint.finding list
(** The interprocedural findings over the world, sorted.  Build the world
    from the ASTs and registry the per-file pass used, so both
    passes share one parse and one set of per-site use counters.
    [on_suppressed] fires instead of a finding when an [[\@lint.allow]]
    covers it (default: ignore). *)
