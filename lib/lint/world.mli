(** The closed world every lint pass judges.

    {!Interp} (R1-R4), {!Alloc} (A1-A3) and {!Dom} (D1-D4) judge the same
    parsed tree.  The world is built once from it and owns what they have
    in common: the walk over every top-level binding, the function index
    and its single resolution policy, the suppression registry and the
    one scope of its three attribute families, the Parsetree shapes every
    per-binding walk must recognise, and the monotone worklist their
    fixpoints run on.  Each pass keeps only its rule tables, its walk of
    a binding body and its judgments. *)

type source = string * string * Parsetree.structure
(** [(file, rule_path, ast)]: the path findings report, the path
    directory-scoped rules test (R2's [lib/mem] and R4's [lib/sim]
    exemptions), and the parsed implementation
    ({!Lint.parse_implementation}). *)

type binding = {
  key : string;
      (** ["Module.name"], ["Module.Sub.name"] for a nested
          [module Sub = struct ... end], or ["Module.<toplevel:N>"] for the
          N-th binding of the file whose pattern is not a variable *)
  file : string;
  rule_path : string;
  vb : Parsetree.value_binding;
  file_allows : Parsetree.attribute list;
      (** file-level [[\@\@\@lint.allow]], [[\@\@\@alloc.allow]] and
          [[\@\@\@dom.allow]] in force, innermost first (see
          {!binding_scope}) *)
}

type index

type t = {
  sources : source list;
  bindings : binding list;  (** source order, then walk order *)
  loose : binding list;
      (** the items no index holds, each as a binding [let _ = (module
          struct <item> end)]: a top-level expression, a functor, a
          constrained module, a class...  Only {!Interp}'s lexical rules
          (R1, R2, R4) judge them. *)
  registry : Lint.allow_registry;
  index : index;
}

val build : source list -> t
(** Walk every top-level binding once and index them.  Suppression sites
    of all three families register in one registry, so that a site is
    stale only if no pass used it; file-level sites register here. *)

val resolve :
  ?among:(binding -> bool) -> t -> file:string -> string -> binding option
(** The binding a path written in [file] names, considering only the
    bindings [among] accepts (default: all): an unqualified name is the
    last top-level binding of that name in [file]; a qualified one is the
    binding with that key, or else the one key that is a dotted suffix of
    the path (alias and fully-qualified spellings).  A key one file
    defines twice is its last definition, as OCaml's shadowing has it; a
    key defined in more than one file (two modules with one basename) is
    ambiguous and resolves nowhere, so no pass depends on the order of the
    sources.  [None] also for stdlib names, locals and closures. *)

(** {1 Suppression scope}

    One scope for every family: [[\@lint.allow]] (R rules),
    [[\@alloc.allow]] (A) and [[\@dom.allow]] (D), at the expression,
    at the binding, or (R and D) for the rest of the file's structure. *)

type scope
(** The sites of one family in force at a node, innermost first. *)

val enter :
  t -> file:string -> string -> scope -> Parsetree.attributes -> scope
(** [enter w ~file family outer attrs]: [outer] with the [[\@family]]
    attributes of a node pushed, its first one innermost.  Every such
    attribute registers, so a redundant second one reads as stale. *)

val binding_scope : t -> string -> binding -> scope
(** The scope a binding's body starts in: its own [[\@\@family]]
    attributes inside the file-level ones in force.  An
    [[\@alloc.allow]] covers only its binding or expression, so a
    file-level one is left out and reads as stale. *)

val allow : scope -> string -> Lint.allow_site option
(** [allow scope rule]: the innermost site covering a finding of [rule].
    A [[\@lint.allow]] covers the rules its payload lists, space- or
    comma-separated, or every rule for ["all"]; an [[\@alloc.allow]] or
    [[\@dom.allow]] carries a reason and covers every rule of its
    family. *)

(** {1 Shapes every walk recognises} *)

type call =
  | Named of
      string
      * Location.t
      * Parsetree.attributes
      * (Asttypes.arg_label * Parsetree.expression) list
      (** a named callee (stdlib prefix stripped), the location of its
          name, the attributes of the function expression and the
          arguments; the [f @@ x] and [x |> f] spellings are rewritten to
          [f x] *)
  | Opaque of Parsetree.expression list
      (** a call through a closure or field: callee then arguments, in
          walk order *)

val call :
  Parsetree.expression ->
  (Asttypes.arg_label * Parsetree.expression) list ->
  call
(** Classify [Pexp_apply (f, args)]. *)

val body :
  (Parsetree.expression -> unit) -> Parsetree.expression -> Parsetree.expression
(** [body walk e]: the body of [e] past its parameter chain ([fun],
    [newtype] and type constraints), after walking the parameters'
    default values with [walk].  A binding's parameters are the function
    itself, not a closure it builds. *)

val arity : binding -> int
(** The parameters of a binding's chain (as {!body} strips it), optional
    ones excepted: an application with fewer arguments is partial. *)

val children : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
(** Apply [walk] to every direct sub-expression. *)

(** {1 Fixpoint} *)

val reach :
  (string * string) list -> (string * 'a) list -> (string, 'a) Hashtbl.t
(** [reach edges seeds]: the least labelling that holds [seeds] and is
    closed under [edges] — when [src] is labelled, every unlabelled [dst]
    of an edge [(src, dst)] takes [src]'s label.  The worklist is FIFO
    from the seeds in order, successors in [edges] order, so the first
    label to arrive wins.  Reverse the edges to propagate from callee to
    caller.  Partially applied to [edges], the adjacency is built once
    for many seed sets. *)
