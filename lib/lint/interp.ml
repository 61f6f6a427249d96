(* Interprocedural charge-discipline analysis (project mode).

   Two rules need the call graph:

   - R3 (commit discipline): a shared-field read needs a commit-family
     call before it, but that call may sit at every *call site* of the
     enclosing function rather than in it (e.g. [Ring.complete], whose
     only callers run right after a committing [Crmr.next_batch]).  This
     pass is R3's only judge.
   - R2 (charged memory): [Lint] flags only *direct* [Hierarchy] traffic,
     so a function can leak uncharged traffic by calling — rather than
     containing — a helper whose raw access was sanctioned with a local
     suppression.

   This pass is a client of the shared closed world ({!World}: the whole
   tree, lib, bin, bench and examples) and computes three relations over
   its call graph:

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
   opaque; a bare
   (unapplied) reference to a known function marks it exposed, since the
   closure may run anywhere.  Lambdas passed to [Env.tagged] run exactly
   once, inline, so their bodies are analyzed transparently at the
   caller's depth; every other lambda saves and restores the domination
   state. *)

module SS = Set.Make (String)
open Lint.Internal

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

(* Walk one binding body, producing its event stream. *)
let events (w : World.t) (b : World.binding) =
  let buf = ref [] in
  let emit e = buf := e :: !buf in
  let entries = allow_entries ~registry:w.registry ~file:b.file in
  let allows = ref (entries (b.vb.pvb_attributes @ b.file_allows)) in
  let allowed r =
    match
      List.find_opt (fun (s, _) -> SS.mem r s || SS.mem "all" s) !allows
    with
    | Some (_, site) -> site
    | None -> None
  in
  let with_allows attrs f =
    match entries attrs with
    | [] -> f ()
    | att ->
      let saved = !allows in
      allows := att @ !allows;
      Fun.protect ~finally:(fun () -> allows := saved) f
  in
  let rec walk (e : Parsetree.expression) =
    with_allows e.pexp_attributes @@ fun () ->
    match e.pexp_desc with
    | Pexp_fun (_, default, _, body) ->
      Option.iter walk default;
      emit (Open_lam false);
      walk body;
      emit Close_lam
    | Pexp_function cases ->
      emit (Open_lam false);
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter walk c.pc_guard;
          walk c.pc_rhs)
        cases;
      emit Close_lam
    | Pexp_newtype (_, body) -> walk body
    | Pexp_apply (f, args) -> (
      match World.call f args with
      | Named (path, loc, args) -> call path loc args
      | Opaque parts -> List.iter walk parts)
    | Pexp_field (inner, { txt; loc }) ->
      walk inner;
      let name = try Longident.last txt with _ -> "" in
      (match List.assoc_opt name shared_fields with
      | Some what ->
        emit (Read { field = name; what; loc; r3_allow = allowed "R3" })
      | None -> ())
    | Pexp_ident { txt; _ } ->
      emit (Mention (strip_stdlib (path_of_lid txt)))
    | Pexp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          with_allows vb.pvb_attributes (fun () -> walk vb.pvb_expr))
        vbs;
      walk body
    | _ -> World.children walk e
  and call path loc args =
    (* [Env.tagged env "site" (fun () -> ...)]: the lambda runs inline,
       exactly once — analyze it at the caller's depth so commits and
       reads inside it belong to the enclosing function *)
    let transparent = matches "Env.tagged" path in
    List.iter
      (fun ((_, a) : Asttypes.arg_label * Parsetree.expression) ->
        match a.pexp_desc with
        | (Pexp_fun _ | Pexp_function _) when transparent ->
          emit (Open_lam true);
          walk (World.body walk a);
          emit Close_lam
        | _ -> walk a)
      args;
    (* the call itself comes after its arguments: a commit in an argument
       dominates the call *)
    let partial =
      match World.resolve w ~file:b.file path with
      | Some g -> List.length args < World.arity g
      | None -> false
    in
    emit (Call { path; loc; r2_allow = allowed "R2"; partial })
  in
  walk (World.body walk b.vb.pvb_expr);
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
  let fns = List.map (fun b -> (b, events w b)) w.bindings in
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
  let findings = ref [] in
  let judge rule allow (b : World.binding) loc msg =
    match allow with
    | Some site ->
      use site;
      on_suppressed ~rule ~loc
    | None -> findings := finding rule ~file:b.file loc msg :: !findings
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
