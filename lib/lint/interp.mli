(** The R rules ({!Lint}) over a closed world.

    One walk per binding of the world judges R1, R2 and R4 at each node,
    in the scope the node's [[\@lint.allow]]s set ({!World.allow}), and
    records the calls, mentions and shared-field reads the call-graph
    rules need:

    - [R3] — a read of a registered shared-mutable field is reported only
      when it is not lexically commit-dominated {e and} its enclosing
      function is {e exposed}: reachable with uncommitted cycles because
      it is an entry point, escapes as a closure, or has a call site that
      is not commit-dominated (least fixpoint over the call graph).  It
      proves helpers whose every call site has already committed, and in
      a one-file world treats every function with no call site as an
      entry point.
    - [R2], beside its direct form — a call (from [lib/]) into a function
      that transitively performs raw [Hierarchy] traffic outside
      [lib/mem] — a leak through a helper whose own direct access was
      locally suppressed — is reported at the call site. *)

val check_project :
  ?on_suppressed:(rule:string -> loc:Location.t -> unit) ->
  World.t ->
  Lint.finding list
(** Every R finding over the world, sorted.  [on_suppressed] fires
    instead of a finding when an [[\@lint.allow]] covers it (default:
    ignore). *)
