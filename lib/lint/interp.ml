(* The R rules over the closed world.

   One walk per binding of the closed world ({!World}: the whole tree,
   lib, bin, bench and examples) judges the rules that need only the
   node and its scope, and records the events the call-graph rules need.
   The items no binding holds ({!World.t.loose}: top-level expressions,
   functors, ...) get the same walk for the lexical rules alone.

   - R1 (determinism): a mention of the wall clock, of ambient
     randomness or of an unordered [Hashtbl] traversal, and
     [Hashtbl.create ~random].
   - R2 (charged memory): a mention of raw [Hierarchy.load]/[store]/
     [prefetch_batch] outside [lib/mem]; and, over the call graph, a call
     from [lib/] into a helper whose own raw access was locally
     suppressed, which leaks the uncharged traffic to the caller.
   - R3 (commit discipline): a shared-field read needs a commit-family
     call before it, but that call may sit at every *call site* of the
     enclosing function rather than in it (e.g. [Ring.complete], whose
     only callers run right after a committing [Crmr.next_batch]).
   - R4 (effect safety): a [Simthread] operation outside a simulated
     thread, which is an enclosing [ctx]/[_ctx] parameter, a
     [Simthread.spawn] callback or an [env.ctx] first argument (each
     binding of a structure, a local module's included, starts outside
     one; [lib/sim] is exempt);
     [Obj.magic] and its kin; physical (in)equality.

   The call-graph rules compute three relations:

   - [commits f] — f's body reaches a commit-family call at lambda depth
     zero, directly or by calling a committing function.  The
     approximation is branch-insensitive and follows traversal order.
   - [exposed f] (least fixpoint) — f can be *entered* with uncommitted
     cycles: it has no syntactic call site in the world (an entry point,
     or a function only ever passed as a closure), or some call site is
     not commit-dominated and its caller is itself exposed.  A
     shared-field read is reported only when it is not lexically dominated
     *and* its function is exposed.  In a world of one file every
     uncalled function is an entry point, so a lone file is judged as if
     each were called uncommitted.
   - [reaches f] — f transitively performs Hierarchy traffic without an
     intervening Env charge: seeded by direct (typically suppressed)
     [Hierarchy.load]/[store]/[prefetch_batch] calls outside [lib/mem] and
     propagated through calls that do not pass through [lib/mem].  A call
     from [lib/] into a reaching function is an R2 finding: the callee was
     sanctioned to touch the hierarchy raw, the caller was not.

   Approximations: call sites are syntactic applications of resolvable
   names ("Module.fn", or an unqualified name bound at the top level of
   the same file); an application with fewer arguments than the target's
   non-optional parameters is partial, and neither commits nor makes its
   caller commit; calls through closures, record fields and functors are
   opaque; a bare (unapplied) reference to a known function marks it
   exposed, since the closure may run anywhere.  Lambdas passed to
   [Env.tagged] run exactly once, inline, so their bodies are analyzed
   transparently at the caller's depth; every other lambda saves and
   restores the domination state. *)

open Lint.Internal

(* ------------------------------------------------------------------ *)
(* The lexical rules                                                   *)
(* ------------------------------------------------------------------ *)

(* R1, R2 and R4 on a mention of [path], called or not *)
let mentioned judge ~rule_path loc path =
  let p = strip_stdlib path in
  if List.mem p wallclock_idents then
    judge "R1" loc
      (Printf.sprintf
         "%s reads the wall clock; simulated time must come from Engine.now \
          / Simthread.now"
         p);
  if String.length p > 7 && String.sub p 0 7 = "Random." then
    judge "R1" loc
      (Printf.sprintf
         "%s is ambient randomness; only Mutps_sim.Rng (seeded, splittable) \
          may produce random values"
         p);
  if List.mem p unordered_traversals then
    judge "R1" loc
      (Printf.sprintf
         "%s traverses in unspecified order, which can leak into simulated \
          state; sort the keys (e.g. Hashtbl.to_seq + List.sort) or use an \
          ordered map"
         p);
  if (not (in_dir "lib/mem" rule_path)) && matches_any hierarchy_traffic path
  then
    judge "R2" loc
      (Printf.sprintf
         "%s bypasses the charge discipline; route traffic through Env.load \
          / Env.store / Env.prefetch_batch so cycles land in the thread's \
          accumulator"
         path);
  if List.mem p forbidden_obj then
    judge "R4" loc (p ^ " defeats the type system; forbidden in the simulation")

(* R4: a parameter that binds the simulated-thread context *)
let rec binds_ctx (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt = "ctx" | "_ctx"; _ }
  | Ppat_alias (_, { txt = "ctx" | "_ctx"; _ }) ->
    true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> binds_ctx p
  | Ppat_tuple ps -> List.exists binds_ctx ps
  | _ -> false

(* R1 and R4 on an application of [p]; [sim]: a thread context is held *)
let applied judge ~rule_path ~sim loc p
    (args : (Asttypes.arg_label * Parsetree.expression) list) =
  if
    matches "Hashtbl.create" p
    && List.exists
         (fun ((l : Asttypes.arg_label), (e : Parsetree.expression)) ->
           match (l, e.pexp_desc) with
           | ( (Labelled "random" | Optional "random"),
               Pexp_construct ({ txt = Lident "false"; _ }, None) ) ->
             false
           | (Labelled "random" | Optional "random"), _ -> true
           | _ -> false)
         args
  then
    judge "R1" loc
      "Hashtbl.create ~random:true seeds iteration order from the process; \
       use the default deterministic layout";
  if p = "==" || p = "!=" then
    judge "R4" loc
      "physical (in)equality on simulation values is \
       representation-dependent; use structural comparison or an explicit id";
  (* an [Env.t]'s [.ctx] as the first positional argument also proves the
     caller holds a thread context *)
  let ctx_field =
    match List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args with
    | Some (_, { pexp_desc = Pexp_field (_, { txt; _ }); _ }) ->
      Longident.last txt = "ctx"
    | _ -> false
  in
  if
    matches_any simthread_ops p
    && (not (in_dir "lib/sim" rule_path))
    && (not sim) && not ctx_field
  then
    judge "R4" loc
      (Printf.sprintf
         "%s is only legal from a simulated thread (a [ctx] parameter, a \
          Simthread.spawn callback, or an Env.t's .ctx)"
         p)

(* ------------------------------------------------------------------ *)
(* Per-function event streams                                          *)
(* ------------------------------------------------------------------ *)

type ev =
  | Call of {
      path : string;
      loc : Location.t;
      r2_allow : Lint.allow_site option;
          (** the covering [@lint.allow "R2"], if any *)
      partial : bool;
          (** fewer arguments than the resolved target's parameters: the
              application builds a closure and runs nothing *)
    }  (** syntactic application of a named target *)
  | Mention of string  (** bare reference: the target escapes as a closure *)
  | Read of {
      field : string;
      what : string;
      loc : Location.t;
      r3_allow : Lint.allow_site option;
    }
  | Open_lam of bool  (** [true] = transparent (runs inline exactly once) *)
  | Close_lam

(* Walk one binding body: judge R1, R2 and R4 at each node through
   [judge rule allow binding loc msg], and return its event stream.
   [scope] holds the [@lint.allow] sites in force, [sim] whether a
   simulated-thread context is. *)
let events (w : World.t) ~judge (b : World.binding) =
  let buf = ref [] in
  let emit e = buf := e :: !buf in
  let enter scope attrs =
    World.enter w ~file:b.file "lint.allow" scope attrs
  in
  let rule_path = b.rule_path in
  let judge scope rule loc msg = judge rule (World.allow scope rule) b loc msg in
  let rec walk ~scope ~sim (e : Parsetree.expression) =
    let scope = enter scope e.pexp_attributes in
    let walk' = walk ~scope ~sim in
    match e.pexp_desc with
    | Pexp_fun (_, default, pat, body) ->
      let sim = sim || binds_ctx pat in
      Option.iter (walk ~scope ~sim) default;
      emit (Open_lam false);
      walk ~scope ~sim body;
      emit Close_lam
    | Pexp_function cases ->
      emit (Open_lam false);
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter walk' c.pc_guard;
          walk' c.pc_rhs)
        cases;
      emit Close_lam
    | Pexp_newtype (_, body) -> walk' body
    | Pexp_apply (f, args) -> (
      match World.call f args with
      | Named (path, loc, attrs, args) ->
        let scope = enter scope attrs in
        mentioned (judge scope) ~rule_path loc path;
        applied (judge scope) ~rule_path ~sim loc path args;
        call ~scope ~sim path loc args
      | Opaque parts -> List.iter walk' parts)
    | Pexp_field (inner, { txt; loc }) ->
      walk' inner;
      let name = try Longident.last txt with _ -> "" in
      (match List.assoc_opt name shared_fields with
      | Some what ->
        emit
          (Read { field = name; what; loc; r3_allow = World.allow scope "R3" })
      | None -> ())
    | Pexp_ident { txt; loc } ->
      let path = path_of_lid txt in
      mentioned (judge scope) ~rule_path loc path;
      emit (Mention (strip_stdlib path))
    | Pexp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          walk ~scope:(enter scope vb.pvb_attributes) ~sim vb.pvb_expr)
        vbs;
      walk' body
    | Pexp_letmodule (_, m, body) ->
      modl ~scope m;
      walk' body
    | Pexp_pack m -> modl ~scope m
    | _ -> World.children walk' e
  (* a module's bindings start outside any simulated thread, under the
     [@@@lint.allow]s before them *)
  and modl ~scope (m : Parsetree.module_expr) =
    match m.pmod_desc with
    | Pmod_structure items -> structure ~scope items
    | Pmod_functor (_, m) | Pmod_constraint (m, _) -> modl ~scope m
    | Pmod_apply (f, m) ->
      modl ~scope f;
      modl ~scope m
    | _ -> World.children (walk ~scope ~sim:false) (Ast_helper.Exp.pack m)
  and structure ~scope = function
    | [] -> ()
    | { pstr_desc = Pstr_attribute a; _ } :: items ->
      structure ~scope:(enter scope [ a ]) items
    | si :: items ->
      (match si.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            walk ~scope:(enter scope vb.pvb_attributes) ~sim:false vb.pvb_expr)
          vbs
      | Pstr_module { pmb_expr = m; _ }
      | Pstr_include { pincl_mod = m; _ }
      | Pstr_open { popen_expr = m; _ } ->
        modl ~scope m
      | Pstr_recmodule mbs ->
        List.iter
          (fun (mb : Parsetree.module_binding) -> modl ~scope mb.pmb_expr)
          mbs
      | _ ->
        World.children (walk ~scope ~sim:false)
          Ast_helper.(Exp.pack (Mod.structure [ si ])));
      structure ~scope items
  and call ~scope ~sim path loc args =
    (* [Env.tagged env "site" (fun () -> ...)]: the lambda runs inline,
       exactly once — analyze it at the caller's depth so commits and
       reads inside it belong to the enclosing function; the lambda of
       [Simthread.spawn] runs as a simulated thread *)
    let transparent = matches "Env.tagged" path
    and spawn = matches "Simthread.spawn" path in
    List.iter
      (fun ((_, a) : Asttypes.arg_label * Parsetree.expression) ->
        match a.pexp_desc with
        | (Pexp_fun _ | Pexp_function _) when transparent ->
          emit (Open_lam true);
          params ~scope ~sim a;
          emit Close_lam
        | Pexp_fun _ | Pexp_function _ -> walk ~scope ~sim:(sim || spawn) a
        | _ -> walk ~scope ~sim a)
      args;
    (* the call itself comes after its arguments: a commit in an argument
       dominates the call *)
    let partial =
      match World.resolve w ~file:b.file path with
      | Some g -> List.length args < World.arity g
      | None -> false
    in
    emit (Call { path; loc; r2_allow = World.allow scope "R2"; partial })
  (* a parameter chain as {!World.body} strips it: the defaults, then the
     body, with no lambda frame *)
  and params ~scope ~sim (e : Parsetree.expression) =
    let inner = enter scope e.pexp_attributes in
    match e.pexp_desc with
    | Pexp_fun (_, default, pat, body) ->
      let sim = sim || binds_ctx pat in
      Option.iter (walk ~scope:inner ~sim) default;
      params ~scope:inner ~sim body
    | Pexp_newtype (_, body) | Pexp_constraint (body, _) ->
      params ~scope:inner ~sim body
    | _ -> walk ~scope ~sim e
  in
  params ~scope:(World.binding_scope w "lint.allow" b) ~sim:false b.vb.pvb_expr;
  List.rev !buf

(* Replay an event stream: every call, read and mention with whether it
   is lexically commit-dominated (lambdas save and restore the state) and
   its opaque-lambda depth.  [commits path] says whether a call commits. *)
let replay ~commits evs =
  let committed = ref false and depth = ref 0 in
  let stack = ref [] and out = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Open_lam true -> stack := None :: !stack
      | Open_lam false ->
        stack := Some !committed :: !stack;
        incr depth
      | Close_lam -> (
        match !stack with
        | None :: tl -> stack := tl
        | Some c :: tl ->
          stack := tl;
          committed := c;
          decr depth
        | [] -> ())
      | Call { path; partial; _ } ->
        out := (ev, !committed, !depth) :: !out;
        if (not partial) && commits path then committed := true
      | Read _ | Mention _ -> out := (ev, !committed, !depth) :: !out)
    evs;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

let check_project ?(on_suppressed = fun ~rule:_ ~loc:_ -> ()) (w : World.t) =
  let findings = ref [] in
  let judge rule allow (b : World.binding) loc msg =
    match allow with
    | Some site ->
      use site;
      on_suppressed ~rule ~loc
    | None -> findings := finding rule ~file:b.file loc msg :: !findings
  in
  let fns = List.map (fun b -> (b, events w ~judge b)) w.bindings in
  List.iter (fun b -> ignore (events w ~judge b)) w.loose;
  let resolve (b : World.binding) path = World.resolve w ~file:b.file path in
  let in_mem (b : World.binding) = in_dir "lib/mem" b.rule_path in
  (* commits(f): f calls, at lambda depth zero, a commit-family function
     or a committing one *)
  let depth0 =
    List.concat_map
      (fun (b, evs) ->
        List.filter_map
          (function
            | Call { path; partial = false; _ }, _, 0 -> Some (b, path)
            | _ -> None)
          (replay ~commits:(fun _ -> false) evs))
      fns
  in
  let commits =
    World.reach
      (List.filter_map
         (fun ((b : World.binding), path) ->
           Option.map
             (fun (g : World.binding) -> (g.key, b.key))
             (resolve b path))
         depth0)
      (List.filter_map
         (fun ((b : World.binding), path) ->
           if matches_any commit_family path then Some (b.key, ()) else None)
         depth0)
  in
  let call_commits b path =
    matches_any commit_family path
    ||
    match resolve b path with
    | Some g -> Hashtbl.mem commits g.key
    | None -> false
  in
  (* one replay per function with the final commit set: resolved call
     sites (caller, callee, dominated, loc, allow), reads, mentions *)
  let replayed =
    List.map (fun (b, evs) -> (b, replay ~commits:(call_commits b) evs)) fns
  in
  let calls =
    List.concat_map
      (fun (b, evs) ->
        List.filter_map
          (function
            | Call { path; loc; r2_allow; _ }, dominated, _ ->
              Option.map
                (fun g -> (b, g, dominated, loc, r2_allow))
                (resolve b path)
            | _ -> None)
          evs)
      replayed
  in
  (* exposed(f): entry points (no call site) and escaping closures,
     propagated caller -> callee through undominated call sites *)
  let has_site = Hashtbl.create 256 in
  List.iter
    (fun (_, (g : World.binding), _, _, _) -> Hashtbl.replace has_site g.key ())
    calls;
  let exposed =
    World.reach
      (List.filter_map
         (fun ((b : World.binding), (g : World.binding), dominated, _, _) ->
           if dominated then None else Some (b.key, g.key))
         calls)
      (List.filter_map
         (fun ((b : World.binding), _) ->
           if Hashtbl.mem has_site b.key then None else Some (b.key, ()))
         replayed
      @ List.concat_map
          (fun (b, evs) ->
            List.filter_map
              (function
                | Mention p, _, _ ->
                  Option.map
                    (fun (g : World.binding) -> (g.key, ()))
                    (resolve b p)
                | _ -> None)
              evs)
          replayed)
  in
  (* R3, interprocedural: an undominated read in an exposed function *)
  List.iter
    (fun ((b : World.binding), evs) ->
      if Hashtbl.mem exposed b.key then
        List.iter
          (function
            | Read { field; what; loc; r3_allow }, false, _ ->
              judge "R3" r3_allow b loc
                (Printf.sprintf
                   "read of shared-mutable field .%s (%s): %s can run with \
                    uncommitted cycles (it is an entry point, escapes as a \
                    closure, or has a call site that is not \
                    commit-dominated); commit before the read or at every \
                    call site"
                   field what b.key)
            | _ -> ())
          evs)
    replayed;
  (* R2, interprocedural: reaches(f) = performs Hierarchy traffic outside
     lib/mem, directly or through calls that do not pass through lib/mem *)
  let reaches =
    World.reach
      (List.filter_map
         (fun ((b : World.binding), (g : World.binding), _, _, _) ->
           if in_mem g then None else Some (g.key, b.key))
         calls)
      (List.filter_map
         (fun ((b : World.binding), evs) ->
           if
             (not (in_mem b))
             && List.exists
                  (function
                    | Call { path; _ }, _, _ ->
                      matches_any hierarchy_traffic path
                    | _ -> false)
                  evs
           then Some (b.key, ())
           else None)
         replayed)
  in
  List.iter
    (fun ((b : World.binding), (g : World.binding), _, loc, r2_allow) ->
      if
        in_dir "lib" b.rule_path
        && (not (in_mem g))
        && Hashtbl.mem reaches g.key
      then
        judge "R2" r2_allow b loc
          (Printf.sprintf
             "call to %s reaches uncharged Hierarchy traffic (a sanctioned \
              raw access further down the call graph); route this path \
              through Env.load / Env.store / Env.prefetch_batch so the \
              cycles land in the thread's accumulator"
             g.key))
    calls;
  List.sort_uniq Lint.compare_finding !findings
