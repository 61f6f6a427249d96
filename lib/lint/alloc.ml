(* Interprocedural zero-allocation certifier (rule family A).  See
   alloc.mli for the contract.

   A client of the shared closed world ({!World}): summarize every
   top-level binding (allocation/boxing/escape sites, outgoing calls, bare
   mentions, [@hot] flag), propagate hotness from the [@hot] roots
   through resolvable calls and mentions, then classify every site and
   call of every hot function.

   The walk is over the Parsetree, so the judgments are syntactic
   approximations of what ocamlopt actually emits:

   - local [ref] cells and [let rec] loops that do not escape are often
     eliminated by Simplif, and constant constructors/literals are
     statically allocated — the checker already skips constants, and
     flagging the eliminable cases is intentional: hot code written so
     the *front end* provably does not allocate stays allocation-free
     under every optimization level and every future compiler.
   - calls through closures, record fields, and unqualified names that do
     not resolve in the closed world are trusted (they are
     overwhelmingly locals and stdlib int primitives); qualified names
     that neither resolve nor appear in the safe/allocating tables are
     reported (A1 unknown-callee) rather than trusted, so the hot set
     cannot silently grow an unvetted dependency.

   The runtime zero-allocation test (test/sim: Gc.minor_words delta over
   an event churn) backstops both approximations. *)

open Lint.Internal

type result = {
  findings : Lint.finding list;
  hot_roots : string list;
  hot_set : string list;
  allow_sites : Lint.allow_site list;
}

(* ------------------------------------------------------------------ *)
(* Vocabulary                                                          *)
(* ------------------------------------------------------------------ *)

(* Calls whose argument subtrees are error paths that terminate the
   simulation: allocation there is exempt (mirrors [@zero_alloc]'s
   relaxed treatment of diverging branches). *)
let diverging_calls =
  [ "invalid_arg"; "failwith"; "raise"; "raise_notrace"; "exit";
    "Alcotest.fail" ]

(* Trace/sanitizer guards: the [Some]-branch of a match on one of these
   (or the then-branch of an if on [debug_checks]) is the
   "observability is on" path, exempt under the zero-cost-when-off
   contract and not part of the hot set. *)
let guard_calls =
  [ "tr"; "san"; "Engine.tracer"; "Engine.sanitizer"; "Env.tr"; "Env.san";
    "debug_checks"; "Engine.debug_checks" ]

(* Unqualified names that allocate. *)
let unqualified_alloc =
  [ ("ref", "ref cell"); ("^", "string concatenation (^)");
    ("@", "list append (@)"); ("string_of_int", "string construction");
    ("string_of_float", "string construction");
    ("float_of_string", "boxed float construction") ]

(* Unqualified float operators/functions: results are boxed unless the
   compiler can prove local unboxing. *)
let float_ops =
  [ "+."; "-."; "*."; "/."; "**"; "~-."; "abs_float"; "sqrt"; "exp"; "log";
    "sin"; "cos"; "mod_float"; "float_of_int" ]

(* Polymorphic comparisons walk runtime representations (and box on the
   way); hot code must compare ints with the int operators. *)
let poly_compare = [ "compare"; "min"; "max"; "Hashtbl.hash" ]

(* Qualified calls known to allocate. *)
let alloc_calls =
  [ "Array.make"; "Array.init"; "Array.create_float"; "Array.append";
    "Array.concat"; "Array.sub"; "Array.copy"; "Array.of_list";
    "Array.to_list"; "Array.map"; "Array.mapi"; "List.map"; "List.mapi";
    "List.append"; "List.concat"; "List.concat_map"; "List.rev";
    "List.rev_append"; "List.filter"; "List.filter_map"; "List.init";
    "List.sort"; "List.sort_uniq"; "List.cons"; "String.make";
    "String.init"; "String.sub"; "String.concat"; "String.cat";
    "String.split_on_char"; "Bytes.create"; "Bytes.make"; "Bytes.sub";
    "Bytes.copy"; "Bytes.of_string"; "Bytes.to_string"; "Hashtbl.create";
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.copy"; "Queue.create";
    "Queue.push"; "Queue.add"; "Stack.create"; "Stack.push"; "Option.map";
    "Option.some"; "Option.bind"; "Atomic.make"; "Domain.spawn";
    "Fun.protect" ]

(* Qualified calls known not to allocate (int/unit primitives). *)
let safe_calls =
  [ "Array.get"; "Array.set"; "Array.unsafe_get"; "Array.unsafe_set";
    "Array.length"; "Array.blit"; "Array.fill"; "Hashtbl.find";
    "Hashtbl.mem"; "Hashtbl.remove"; "Hashtbl.length"; "Hashtbl.clear";
    "Hashtbl.reset"; "String.length"; "String.get"; "String.unsafe_get";
    "String.equal"; "String.compare"; "Bytes.length"; "Bytes.get";
    "Bytes.set"; "Bytes.unsafe_get"; "Bytes.unsafe_set"; "Bytes.blit";
    "Bytes.fill"; "Char.code"; "Char.chr"; "Char.equal"; "Int.equal";
    "Int.compare"; "Int.min"; "Int.max"; "Int.abs"; "Atomic.get";
    "Atomic.set"; "Atomic.exchange"; "Atomic.compare_and_set";
    "Atomic.fetch_and_add"; "Atomic.incr"; "Atomic.decr"; "Queue.length";
    "Queue.is_empty"; "Sys.opaque_identity"; "Effect.perform";
    "Domain.DLS.get"; "Array.iter"; "Array.iteri"; "Array.exists";
    "List.iter"; "List.length"; "List.exists"; "List.mem" ]

(* Observability machinery: allocation plus I/O, neither belongs on the
   hot path outside a trace guard. *)
let a3_prefixes = [ "Printf."; "Format."; "Buffer."; "print_"; "prerr_"; "output_" ]

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  String.length s >= String.length suf
  && String.sub s (String.length s - String.length suf) (String.length suf)
     = suf

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

type site = {
  s_rule : string;  (* "A1" | "A2" | "A3" *)
  s_what : string;
  s_loc : Location.t;
  s_allow : Lint.allow_site option;  (* covering [@alloc.allow] *)
}

type call = {
  c_path : string;
  c_loc : Location.t;
  c_nargs : int;
  c_labeled : bool;  (* any labelled/optional argument *)
  c_allow : Lint.allow_site option;
}

type summary = {
  b : World.binding;
  hot : bool;
  sites : site list;
  calls : call list;
  mentions : (string * Lint.allow_site option) list;
}

(* Literals, constant constructors, and structured constants built only
   from them are statically allocated: not sites. *)
let rec is_constant (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> true
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> is_constant a
  | Pexp_tuple es -> List.for_all is_constant es
  | _ -> false

let is_guard_scrutinee (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    matches_any guard_calls (strip_stdlib (path_of_lid txt))
  | _ -> false

let is_some_pattern (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> (
    match Longident.last txt with "Some" -> true | _ -> false)
  | _ -> false

(* Walk one binding.  [allow] is the innermost covering [@alloc.allow];
   [live] is false inside diverging arguments and trace-guard branches. *)
let summarize (w : World.t) (b : World.binding) =
  let sites = ref [] and calls = ref [] and mentions = ref [] in
  let rec walk ~allow ~live (e : Parsetree.expression) =
    let allow =
      World.allow w ~file:b.file "alloc.allow" allow e.pexp_attributes
    in
    let walk' = walk ~allow ~live and dead = walk ~allow ~live:false in
    let site rule what =
      if live then
        sites :=
          { s_rule = rule; s_what = what; s_loc = e.pexp_loc; s_allow = allow }
          :: !sites
    in
    match e.pexp_desc with
    | Pexp_fun (_, default, _, lam_body) ->
      site "A1" "closure allocation (lambda with captured environment)";
      Option.iter walk' default;
      walk' lam_body
    | Pexp_function cases ->
      site "A1" "closure allocation (function with captured environment)";
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter walk' c.pc_guard;
          walk' c.pc_rhs)
        cases
    | Pexp_tuple es ->
      if not (is_constant e) then site "A1" "tuple construction";
      List.iter walk' es
    | Pexp_record (fields, base) ->
      site "A1" "record construction";
      Option.iter walk' base;
      List.iter (fun (_, v) -> walk' v) fields
    | Pexp_construct (_, Some arg) ->
      if not (is_constant e) then
        site "A1" "variant construction (constructor with payload)";
      walk' arg
    | Pexp_variant (_, Some arg) ->
      if not (is_constant e) then site "A1" "polymorphic-variant construction";
      walk' arg
    | Pexp_array [] -> ()
    | Pexp_array es ->
      site "A1" "array literal";
      List.iter walk' es
    | Pexp_lazy inner ->
      site "A1" "lazy suspension";
      walk' inner
    | Pexp_object _ -> site "A1" "object construction"
    | Pexp_pack _ -> site "A1" "first-class module packing"
    | Pexp_constant (Pconst_float _) ->
      (* a float literal is a static box; only flag computed floats *)
      ()
    | Pexp_ident { txt; _ } ->
      if live then
        mentions := (strip_stdlib (path_of_lid txt), allow) :: !mentions
    | Pexp_apply (f, args) -> (
      match World.call f args with
      | Named (path, _, args) when List.mem path diverging_calls ->
        (* the call terminates the simulation; its message may allocate *)
        List.iter (fun (_, a) -> dead a) args
      | Named (path, loc, args) ->
        List.iter (fun (_, a) -> walk' a) args;
        if live then
          calls :=
            {
              c_path = path;
              c_loc = loc;
              c_nargs = List.length args;
              c_labeled =
                List.exists
                  (fun ((l : Asttypes.arg_label), _) -> l <> Asttypes.Nolabel)
                  args;
              c_allow = allow;
            }
            :: !calls
      | Opaque parts ->
        (* call through a closure or field: opaque, trusted *)
        List.iter walk' parts)
    | Pexp_match (scrut, cases) when is_guard_scrutinee scrut ->
      walk' scrut;
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter walk' c.pc_guard;
          (if is_some_pattern c.pc_lhs then dead else walk') c.pc_rhs)
        cases
    | Pexp_ifthenelse (cond, then_, else_) when is_guard_scrutinee cond ->
      walk' cond;
      dead then_;
      Option.iter walk' else_
    | Pexp_let (_, vbs, let_body) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          walk ~live vb.pvb_expr
            ~allow:
              (World.allow w ~file:b.file "alloc.allow" allow
                 vb.pvb_attributes))
        vbs;
      walk' let_body
    | _ -> World.children walk' e
  in
  let walk =
    walk ~live:true
      ~allow:(World.allow w ~file:b.file "alloc.allow" None b.vb.pvb_attributes)
  in
  walk (World.body walk b.vb.pvb_expr);
  {
    b;
    hot =
      List.exists
        (fun (a : Parsetree.attribute) -> a.attr_name.txt = "hot")
        b.vb.pvb_attributes;
    sites = List.rev !sites;
    calls = List.rev !calls;
    mentions = List.rev !mentions;
  }

(* Leading Nolabel parameters; -1 when any is labelled. *)
let binding_arity (e : Parsetree.expression) =
  let rec go acc (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (Asttypes.Nolabel, _, _, body) -> go (acc + 1) body
    | Pexp_fun (_, _, _, _) -> -1
    | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> go acc body
    | _ -> acc
  in
  go 0 e

(* ------------------------------------------------------------------ *)
(* Classification of an outgoing call                                  *)
(* ------------------------------------------------------------------ *)

(* [None] = provably fine; [Some (rule, what)] = would be a finding. *)
let classify_call w ~file (c : call) =
  let p = c.c_path in
  if List.mem p safe_calls || List.mem p diverging_calls then None
  else
    match List.assoc_opt p unqualified_alloc with
    | Some what -> Some ("A1", what)
    | None ->
      if List.mem p float_ops then
        Some ("A2", "float operation " ^ p ^ " (boxed result)")
      else if List.mem p poly_compare then
        Some
          ( "A2",
            "polymorphic " ^ p
            ^ " walks runtime representations; use int comparisons" )
      else if
        (has_prefix "Int64." p || has_prefix "Int32." p
        || has_prefix "Nativeint." p)
        && not (has_suffix ".to_int" p)
      then Some ("A2", "boxed-integer operation " ^ p)
      else if has_prefix "Float." p then
        Some ("A2", "float operation " ^ p ^ " (boxed result)")
      else if List.exists (fun pre -> has_prefix pre p) a3_prefixes then
        Some ("A3", "observability call " ^ p)
      else if List.mem p alloc_calls || has_prefix "Seq." p then
        Some ("A1", "allocating call " ^ p)
      else if has_suffix "_opt" p && String.contains p '.' then
        Some ("A1", "option-allocating call " ^ p)
      else
        match World.resolve w ~file p with
        | Some g ->
          let arity = binding_arity g.vb.pvb_expr in
          if arity >= 0 && (not c.c_labeled) && c.c_nargs < arity then
            Some
              ( "A1",
                Printf.sprintf
                  "partial application of %s (%d of %d arguments) builds a \
                   closure"
                  g.key c.c_nargs arity )
          else None
        | None ->
          if String.contains p '.' then
            Some
              ( "A1",
                "call to " ^ p
                ^ " cannot be proven allocation-free (outside the closed \
                   world and not a known-safe primitive)" )
          else None (* unqualified local: trusted *)

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

let check_project (w : World.t) =
  let fns = List.map (summarize w) w.bindings in
  (* hot set: roots = [@hot] bindings; propagate through calls and bare
     mentions outside allow regions.  [root_of] remembers which root made
     each function hot, for the finding messages. *)
  let hot_roots =
    List.filter_map (fun f -> if f.hot then Some f.b.key else None) fns
  in
  let edge f (path, allow) =
    match (allow, World.resolve w ~file:f.b.file path) with
    | None, Some (g : World.binding) -> Some (f.b.key, g.key)
    | _ -> None
  in
  let root_of =
    World.reach
      (List.concat_map
         (fun f ->
           List.filter_map (fun c -> edge f (c.c_path, c.c_allow)) f.calls
           @ List.filter_map (edge f) f.mentions)
         fns)
      (List.map (fun r -> (r, r)) hot_roots)
  in
  let findings = ref [] in
  let judge f allow rule loc msg =
    match allow with
    | Some site -> use site
    | None -> findings := finding rule ~file:f.b.file loc msg :: !findings
  in
  List.iter
    (fun f ->
      match Hashtbl.find_opt root_of f.b.key with
      | None -> ()
      | Some root ->
        let provenance =
          if root = f.b.key then Printf.sprintf "%s ([@hot] root)" root
          else Printf.sprintf "%s (hot: reachable from [@hot] %s)" f.b.key root
        in
        List.iter
          (fun s ->
            judge f s.s_allow s.s_rule s.s_loc
              (Printf.sprintf
                 "%s in %s; the DES hot path must stay off the OCaml heap — \
                  hoist the value, encode it in ints, or justify with \
                  [@alloc.allow \"reason\"]"
                 s.s_what provenance))
          f.sites;
        List.iter
          (fun c ->
            match classify_call w ~file:f.b.file c with
            | None -> ()
            | Some (rule, what) ->
              judge f c.c_allow rule c.c_loc
                (Printf.sprintf "%s in %s" what provenance))
          f.calls)
    fns;
  {
    findings = List.sort_uniq Lint.compare_finding !findings;
    hot_roots;
    hot_set = List.sort compare (List.of_seq (Hashtbl.to_seq_keys root_of));
    allow_sites =
      List.filter
        (fun (s : Lint.allow_site) -> s.as_attr = "alloc.allow")
        (Lint.allow_sites w.registry);
  }
