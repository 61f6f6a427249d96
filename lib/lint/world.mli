(** The closed world the project passes share.

    {!Interp} (R2/R3), {!Alloc} (A1-A3) and {!Dom} (D1-D4) judge the same
    parsed tree.  The world is built once from it and owns what they have
    in common: the walk over every top-level binding, the function index
    and its single resolution policy, the suppression registry, the
    Parsetree shapes every per-binding walk must recognise, and the
    monotone worklist their fixpoints run on.  Each pass keeps only its
    rule tables, its walk of a binding body and its judgments. *)

type source = string * string * Parsetree.structure
(** [(file, rule_path, ast)]: the path findings report, the path
    directory-scoped rules test (see {!Lint.check_file}), and the parsed
    implementation ({!Lint.parse_implementation}). *)

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
          [[\@\@\@dom.allow]] in force, innermost first.  {!Alloc}
          consults none: an [[\@alloc.allow]] covers only its binding or
          expression, so a file-level one reads as stale. *)
}

type index

type t = {
  sources : source list;
  bindings : binding list;  (** source order, then walk order *)
  registry : Lint.allow_registry;
  index : index;
}

val build : ?registry:Lint.allow_registry -> source list -> t
(** Walk every top-level binding once and index them.  Pass the registry
    shared with {!Lint.check_structure} so that suppression sites of all
    three families accumulate their use counts in one place; file-level
    sites register here. *)

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

val allow :
  t ->
  file:string ->
  string ->
  Lint.allow_site option ->
  Parsetree.attributes ->
  Lint.allow_site option
(** [allow w ~file family outer attrs]: the innermost [[\@family]]
    suppression (e.g. ["dom.allow"]) covering a node with attributes
    [attrs] — the site of its first such attribute, else [outer].  Every
    such attribute registers, so a redundant second one reads as
    stale. *)

(** {1 Shapes every walk recognises} *)

type call =
  | Named of
      string * Location.t * (Asttypes.arg_label * Parsetree.expression) list
      (** a named callee (stdlib prefix stripped) and its arguments; the
          [f @@ x] and [x |> f] spellings are rewritten to [f x] *)
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
