(* Interprocedural domain-safety & lock-order analysis (the D rules).

   The simulated-time core is single-domain by construction, but two
   things already cross real domains: the parallel experiment runner
   (lib/experiments/runner.ml, [Domain.spawn] per job) and the ambient
   engine factories it inherits (DLS).  The future native backend
   (ROADMAP #2) will cross domains everywhere.  This pass certifies, over
   the same closed Parsetree world as {!Interp}, the contract that makes
   that safe:

   D1  every module-level mutable value (ref, Hashtbl, Buffer, array,
       record with mutable fields, ...) must be one of
         - a synchronization value itself (Atomic / Mutex / Condition /
           Semaphore / Domain.DLS key),
         - frozen: no runtime writes — writes only at module
           initialization (depth-zero code of immediate top-level
           bindings, which happens-before any spawn),
         - mutex-guarded: every runtime access holds one common lock
           (lock state is tracked through sequences, [Mutex.protect],
           and closures, which inherit the locks held at their
           definition point);
       anything else is an unprotected cross-domain access.  Mutable
       state reachable only through instance records (engine fields,
       store handles, ...) is engine-local by construction and out of
       scope; the pass counts those record types for visibility.
   D2  mutable locals captured by a closure handed to [Domain.spawn]
       (directly, or through a locally-bound worker function, which is
       inlined) must be written only under a lock.  Writes outside the
       spawn region are assumed to happen before the spawn or after the
       join — the runner's fill-then-join idiom.
   D3  a static lock-order graph: an edge [a -> b] is recorded when [b]
       is acquired while [a] is held, directly or via a call to a
       function that transitively acquires [b].  Cycles (including
       self-edges: re-acquiring a held, non-reentrant [Mutex.t]) are
       potential deadlocks.  The graph exports as DOT.
   D4  effect performs must be dominated by their handler in the same
       domain: a [perform] — or a call reaching one with no intervening
       handler — inside a [Domain.spawn] closure is an error, because
       the handler installed by [Simthread.spawn]'s [match_with] never
       crosses a domain boundary.  Arguments of handler-installing calls
       ([match_with]/[try_with]/[continue_with]/[Simthread.spawn]) are
       handled regions; performer-ness propagates through ordinary calls.

   Findings are reported for library code (rule paths outside bin/,
   bench/ and examples/ — single-domain drivers); the lock graph is
   built over everything.  Any finding can be suppressed with
   [[@dom.allow "reason"]] at the expression, [[@@dom.allow "reason"]]
   at the binding, or [[@@@dom.allow "reason"]] for the rest of the
   file; sites register in the shared {!Lint.allow_registry} so stale
   suppressions are reported alongside the lint and alloc families.

   Approximations (all in the conservative direction or documented):
   record mutability is judged by field name over every type declared in
   the world; calls through closures, fields and functors are opaque;
   [Mutex.try_lock] counts as an acquire (its failure branch is treated
   as if locked); DLS-inherited factory closures are not spawn-seeded
   (the two in-tree instances are mutex-guarded and D1-checked). *)

module SS = Set.Make (String)
open Lint.Internal

(* ------------------------------------------------------------------ *)
(* Lock-order graph                                                    *)
(* ------------------------------------------------------------------ *)

module Lockgraph = struct
  type t = {
    mutable node_order : string list;  (** reverse insertion order *)
    node_set : (string, unit) Hashtbl.t;
    edge_tbl : (string * string, string * int) Hashtbl.t;
        (** (src, dst) -> first witness (file, line) *)
  }

  let create () =
    { node_order = []; node_set = Hashtbl.create 16; edge_tbl = Hashtbl.create 16 }

  let add_node t n =
    if not (Hashtbl.mem t.node_set n) then begin
      Hashtbl.replace t.node_set n ();
      t.node_order <- n :: t.node_order
    end

  let add_edge t ~src ~dst ~file ~line =
    add_node t src;
    add_node t dst;
    if not (Hashtbl.mem t.edge_tbl (src, dst)) then
      Hashtbl.replace t.edge_tbl (src, dst) (file, line)

  let nodes t = List.sort compare (List.rev t.node_order)

  let edges t =
    Hashtbl.to_seq t.edge_tbl
    |> Seq.map (fun ((src, dst), (file, line)) -> (src, dst, file, line))
    |> List.of_seq |> List.sort compare

  (* A node is on a cycle when it reaches itself from its successors
     (a self-edge included); its cycle is every node it reaches that also
     reaches it. *)
  let cycles t =
    let ns = nodes t and es = List.map (fun (s, d, _, _) -> (s, d)) (edges t) in
    let reach = World.reach es in
    let after =
      List.map
        (fun v ->
          ( v,
            reach
              (List.filter_map
                 (fun (s, d) -> if s = v then Some (d, ()) else None)
                 es) ))
        ns
    in
    let reaches u v = Hashtbl.mem (List.assoc u after) v in
    List.filter (fun v -> reaches v v) ns
    |> List.map (fun v -> List.filter (fun u -> reaches v u && reaches u v) ns)
    |> List.sort_uniq compare

  let to_dot t =
    let b = Buffer.create 256 in
    Buffer.add_string b "digraph lock_order {\n";
    Buffer.add_string b "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
    List.iter
      (fun n -> Buffer.add_string b (Printf.sprintf "  %S;\n" n))
      (nodes t);
    List.iter
      (fun (s, d, file, line) ->
        Buffer.add_string b
          (Printf.sprintf "  %S -> %S [label=\"%s:%d\", fontsize=8];\n" s d
             file line))
      (edges t);
    Buffer.add_string b "}\n";
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Rule tables                                                         *)
(* ------------------------------------------------------------------ *)

(* Constructors whose result is a synchronization value: safe to share
   by design. *)
let sync_ctors =
  [
    ("Atomic.make", "Atomic");
    ("Mutex.create", "Mutex");
    ("Condition.create", "Condition");
    ("Semaphore.Counting.make", "Semaphore");
    ("Semaphore.Binary.make", "Semaphore");
    ("Domain.DLS.new_key", "DLS key");
  ]

(* Constructors whose result is shared-mutable when bound at the module
   top level. *)
let mut_ctors =
  [
    ("ref", "ref cell");
    ("Hashtbl.create", "hash table");
    ("Queue.create", "queue");
    ("Stack.create", "stack");
    ("Buffer.create", "buffer");
    ("Bytes.create", "byte buffer");
    ("Bytes.make", "byte buffer");
    ("Bytes.of_string", "byte buffer");
    ("Array.make", "array");
    ("Array.init", "array");
    ("Array.create_float", "array");
    ("Array.of_list", "array");
    ("Array.copy", "array");
    ("Array.append", "array");
    ("Array.concat", "array");
    ("Array.sub", "array");
    ("Weak.create", "weak array");
  ]

(* Known mutators: positional (Nolabel) argument indices that are written
   through.  A bare identifier in such a position is a write mention of
   that identifier; everything else is a read. *)
let mutators =
  [
    (":=", [ 0 ]); ("incr", [ 0 ]); ("decr", [ 0 ]);
    ("Hashtbl.replace", [ 0 ]); ("Hashtbl.add", [ 0 ]);
    ("Hashtbl.remove", [ 0 ]); ("Hashtbl.reset", [ 0 ]);
    ("Hashtbl.clear", [ 0 ]); ("Hashtbl.filter_map_inplace", [ 1 ]);
    ("Array.set", [ 0 ]); ("Array.unsafe_set", [ 0 ]);
    ("Array.fill", [ 0 ]); ("Array.blit", [ 2 ]);
    ("Array.sort", [ 1 ]); ("Array.fast_sort", [ 1 ]);
    ("Bytes.set", [ 0 ]); ("Bytes.unsafe_set", [ 0 ]);
    ("Bytes.fill", [ 0 ]); ("Bytes.blit", [ 2 ]);
    ("Bytes.blit_string", [ 2 ]);
    ("Buffer.add_char", [ 0 ]); ("Buffer.add_string", [ 0 ]);
    ("Buffer.add_bytes", [ 0 ]); ("Buffer.add_substring", [ 0 ]);
    ("Buffer.add_subbytes", [ 0 ]); ("Buffer.add_buffer", [ 0 ]);
    ("Buffer.clear", [ 0 ]); ("Buffer.reset", [ 0 ]);
    ("Buffer.truncate", [ 0 ]);
    ("Queue.push", [ 1 ]); ("Queue.add", [ 1 ]); ("Queue.pop", [ 0 ]);
    ("Queue.take", [ 0 ]); ("Queue.clear", [ 0 ]);
    ("Queue.transfer", [ 0; 1 ]);
    ("Stack.push", [ 1 ]); ("Stack.pop", [ 0 ]); ("Stack.clear", [ 0 ]);
  ]

(* Calls whose function arguments run under an installed effect handler.
   [Simthread.spawn] wraps its callback in [match_with] internally. *)
let handler_installers =
  [ "match_with"; "try_with"; "continue_with"; "Simthread.spawn" ]

let is_perform p = matches "perform" p || matches "Effect.perform" p

(* ------------------------------------------------------------------ *)
(* World facts: mutable record fields, globals                         *)
(* ------------------------------------------------------------------ *)

let reported_path rule_path =
  not
    (in_dir "bin" rule_path || in_dir "bench" rule_path
    || in_dir "examples" rule_path)

(* Every record type in the world contributes its mutable field names;
   a type with at least one mutable field counts as instance-local
   mutable state (out of D1 scope, reported for visibility). *)
let collect_type_facts sources =
  let mutable_fields = ref SS.empty in
  let mutable_types = ref 0 in
  let type_declaration _ (td : Parsetree.type_declaration) =
    match td.ptype_kind with
    | Ptype_record labels ->
      let muts =
        List.filter
          (fun (l : Parsetree.label_declaration) ->
            l.pld_mutable = Asttypes.Mutable)
          labels
      in
      if muts <> [] then begin
        incr mutable_types;
        List.iter
          (fun (l : Parsetree.label_declaration) ->
            mutable_fields := SS.add l.pld_name.txt !mutable_fields)
          muts
      end
    | _ -> ()
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  List.iter (fun (_, _, str) -> it.structure it str) sources;
  (!mutable_fields, !mutable_types)

type kind = Sync of string | Mut of string | Imm

(* Shape of a top-level right-hand side.  Recurses through containers
   (tuples, constructors, immutable records, let/sequence tails, if
   branches) so [Some (ref 0)] or [{ slot = Hashtbl.create 4 }] is still
   mutable; function-call results are opaque and classify immutable. *)
let rec classify_rhs ~mutable_fields (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) ->
    classify_rhs ~mutable_fields e
  | Pexp_lazy _ -> Mut "lazy thunk"
  | Pexp_array (_ :: _) -> Mut "array literal"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    let p = strip_stdlib (path_of_lid txt) in
    match List.assoc_opt p sync_ctors with
    | Some k -> Sync k
    | None -> (
      match List.assoc_opt p mut_ctors with
      | Some w -> Mut w
      | None -> Imm))
  | Pexp_record (fields, _) ->
    if
      List.exists
        (fun (({ txt; _ } : Longident.t Location.loc), _) ->
          match Longident.last txt with
          | name -> SS.mem name mutable_fields
          | exception _ -> false)
        fields
    then Mut "record with mutable fields"
    else if
      List.exists
        (fun (_, v) -> classify_rhs ~mutable_fields v <> Imm)
        fields
    then Mut "record holding mutable state"
    else Imm
  | Pexp_tuple es ->
    if List.exists (fun e -> classify_rhs ~mutable_fields e <> Imm) es then
      Mut "tuple holding mutable state"
    else Imm
  | Pexp_construct (_, Some arg) -> (
    match classify_rhs ~mutable_fields arg with
    | Imm -> Imm
    | Sync k -> Sync k
    | Mut w -> Mut w)
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) ->
    classify_rhs ~mutable_fields body
  | Pexp_ifthenelse (_, t, Some e) -> (
    match classify_rhs ~mutable_fields t with
    | Imm -> classify_rhs ~mutable_fields e
    | k -> k)
  | _ -> Imm

type status =
  | S_sync of string  (** a synchronization value (Atomic, Mutex, DLS, ...) *)
  | S_frozen  (** no runtime writes: initialized, then read-only *)
  | S_locked of string  (** every runtime access holds this lock *)
  | S_flagged  (** has unprotected runtime accesses (D1 findings) *)

type global = {
  g_key : string;  (** "Module.binding" *)
  g_file : string;
  g_line : int;
  g_what : string;  (** "hash table", "Mutex", ... *)
  g_kind : kind;
  mutable g_status : status;
}

let rec is_function_rhs (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> is_function_rhs e
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-binding extraction                                              *)
(* ------------------------------------------------------------------ *)

type ctx = {
  held : SS.t;  (** locks held *)
  spawn : bool;  (** inside a Domain.spawn closure *)
  handled : bool;  (** under an effect-handler installer *)
  depth : int;  (** lambda depth *)
  allow : Lint.allow_site option;  (** innermost covering [@dom.allow] *)
}

type event =
  | Mention of string * bool  (** global key, write *)
  | Capture of string * string * bool
      (** mutable local captured by a spawn closure: name, what, write *)
  | Call of string  (** callee path as written *)
  | Acquire of string  (** lock identity *)
  | Perform

type site = { ev : event; b : World.binding; loc : Location.t; ctx : ctx }

(* Walk one top-level binding's body, emitting its events in walk
   order. *)
let walk_binding (w : World.t) ~globals ~mutable_fields ~emit
    (b : World.binding) =
  let spawn_visited = ref SS.empty in
  let local_muts : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let local_lams : (string, Parsetree.expression) Hashtbl.t =
    Hashtbl.create 8
  in
  (* a path names a global only among the globals: an accessor that
     shares its short name never hides one *)
  let global p =
    match
      World.resolve w ~file:b.file p ~among:(fun (g : World.binding) ->
          Hashtbl.mem globals g.key)
    with
    | Some (g : World.binding) -> Hashtbl.find_opt globals g.key
    | None -> None
  in
  let emit ctx loc ev = emit { ev; b; loc; ctx } in
  (* Identity of a lock expression: a resolvable global mutex keeps its
     key; a local name is scoped to the enclosing binding; a record
     field keeps its field name (all instances of a per-instance lock
     share one node — instance locks have one acquisition discipline);
     anything else is anonymous per site. *)
  let lock_id (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      let p = strip_stdlib (path_of_lid txt) in
      match global p with
      | Some g -> g.g_key
      | None -> if String.contains p '.' then p else b.key ^ "/" ^ p)
    | Pexp_field (_, { txt; _ }) -> (
      match Longident.last txt with
      | f -> "<." ^ f ^ ">"
      | exception _ -> "<.lock>")
    | _ ->
      Printf.sprintf "<anon:%s:%d>" b.file
        e.pexp_loc.Location.loc_start.pos_lnum
  in
  let mention ctx ~(loc : Location.t) ~write p =
    let p = strip_stdlib p in
    match global p with
    | Some { g_key; g_kind = Mut _; _ } -> emit ctx loc (Mention (g_key, write))
    | _ -> (
      if not (String.contains p '.') then
        match Hashtbl.find_opt local_muts p with
        | Some what when ctx.spawn -> emit ctx loc (Capture (p, what, write))
        | _ -> ())
  in
  let rec walk ctx (e : Parsetree.expression) : SS.t =
    let allow =
      World.allow w ~file:b.file "dom.allow" ctx.allow e.pexp_attributes
    in
    let ctx = { ctx with allow } in
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
      mention ctx ~loc ~write:false (path_of_lid txt);
      ctx.held
    | Pexp_fun (_, default, _, body) ->
      Option.iter (fun d -> ignore (walk ctx d)) default;
      ignore (walk { ctx with depth = ctx.depth + 1 } body);
      ctx.held
    | Pexp_function cases ->
      let inner = { ctx with depth = ctx.depth + 1 } in
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter (fun g -> ignore (walk inner g)) c.pc_guard;
          ignore (walk inner c.pc_rhs))
        cases;
      ctx.held
    | Pexp_apply (f, args) -> (
      match World.call f args with
      | Named (p, loc, args) -> call ctx loc p args
      | Opaque parts ->
        List.iter (fun e -> ignore (walk ctx e)) parts;
        ctx.held)
    | Pexp_let (_, vbs, body) ->
      let held =
        List.fold_left
          (fun held (vb : Parsetree.value_binding) ->
            (match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = name; _ }
            | Ppat_constraint ({ ppat_desc = Ppat_var { txt = name; _ }; _ }, _)
              -> (
              match vb.pvb_expr.pexp_desc with
              | Pexp_fun _ | Pexp_function _ ->
                Hashtbl.replace local_lams name vb.pvb_expr
              | _ -> (
                match classify_rhs ~mutable_fields vb.pvb_expr with
                | Mut what -> Hashtbl.replace local_muts name what
                | _ -> ()))
            | _ -> ());
            walk { ctx with held } vb.pvb_expr)
          ctx.held vbs
      in
      walk { ctx with held } body
    | Pexp_sequence (a, b) ->
      let held = walk ctx a in
      walk { ctx with held } b
    | Pexp_setfield (lhs, _, rhs) ->
      (match lhs.pexp_desc with
      | Pexp_ident { txt; loc } ->
        mention ctx ~loc ~write:true (path_of_lid txt)
      | _ -> ignore (walk ctx lhs));
      ignore (walk ctx rhs);
      ctx.held
    | Pexp_ifthenelse (c, t, eo) ->
      let held = walk ctx c in
      ignore (walk { ctx with held } t);
      Option.iter (fun e -> ignore (walk { ctx with held } e)) eo;
      held
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      let held = walk ctx scrut in
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter (fun g -> ignore (walk { ctx with held } g)) c.pc_guard;
          ignore (walk { ctx with held } c.pc_rhs))
        cases;
      held
    | Pexp_constraint (e, _) | Pexp_newtype (_, e) | Pexp_open (_, e) ->
      walk ctx e
    | _ ->
      World.children (fun e -> ignore (walk ctx e)) e;
      ctx.held
  and call ctx (loc : Location.t) p args : SS.t =
    let nolabel =
      List.filter_map
        (fun ((l, a) : Asttypes.arg_label * Parsetree.expression) ->
          if l = Asttypes.Nolabel then Some a else None)
        args
    in
    if matches "Mutex.lock" p || matches "Mutex.try_lock" p then (
      match nolabel with
      | [ l ] ->
        let lid = lock_id l in
        emit ctx loc (Acquire lid);
        SS.add lid ctx.held
      | _ -> ctx.held)
    else if matches "Mutex.unlock" p then (
      match nolabel with
      | [ l ] -> SS.remove (lock_id l) ctx.held
      | _ -> ctx.held)
    else if matches "Mutex.protect" p then (
      match nolabel with
      | l :: rest ->
        let lid = lock_id l in
        emit ctx loc (Acquire lid);
        let inner = { ctx with held = SS.add lid ctx.held } in
        List.iter (fun a -> ignore (walk inner a)) rest;
        ctx.held
      | [] -> ctx.held)
    else if matches "Domain.spawn" p then begin
      (match nolabel with
      | closure :: _ -> spawn_walk ctx loc closure
      | [] -> ());
      ctx.held
    end
    else if matches_any handler_installers p then begin
      emit ctx loc (Call p);
      List.iter
        (fun (_, a) -> ignore (walk { ctx with handled = true } a))
        args;
      ctx.held
    end
    else if is_perform p then begin
      emit ctx loc Perform;
      List.iter (fun (_, a) -> ignore (walk ctx a)) args;
      ctx.held
    end
    else begin
      (* argument traversal, with write positions of known mutators *)
      let write_idx =
        Option.value (List.assoc_opt p mutators) ~default:[]
      in
      let pos = ref (-1) in
      List.iter
        (fun ((l, a) : Asttypes.arg_label * Parsetree.expression) ->
          let is_write_pos =
            l = Asttypes.Nolabel
            && begin
                 incr pos;
                 List.mem !pos write_idx
               end
          in
          match a.pexp_desc with
          | Pexp_ident { txt; loc = iloc } when is_write_pos ->
            mention ctx ~loc:iloc ~write:true (path_of_lid txt)
          | _ -> ignore (walk ctx a))
        args;
      call_named ctx loc p;
      ctx.held
    end
  (* the call itself; a local worker function in a spawn region runs on
     the spawned domain — inline its body, once per spawn region *)
  and call_named ctx loc p =
    if (not (String.contains p '.')) && Hashtbl.mem local_lams p then begin
      if ctx.spawn && not (SS.mem p !spawn_visited) then begin
        spawn_visited := SS.add p !spawn_visited;
        inline_lam ctx (Hashtbl.find local_lams p)
      end
    end
    else emit ctx loc (Call p)
  and inline_lam ctx (lam : Parsetree.expression) =
    ignore (walk ctx (World.body (fun d -> ignore (walk ctx d)) lam))
  and spawn_walk ctx loc (closure : Parsetree.expression) =
    let inner =
      { ctx with spawn = true; handled = false; depth = ctx.depth + 1 }
    in
    match closure.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> inline_lam inner closure
    | Pexp_ident { txt; _ } ->
      call_named inner loc (strip_stdlib (path_of_lid txt))
    | _ -> ignore (walk inner closure)
  in
  (* a binding's own [@@dom.allow], else the file-level one in force *)
  let allow =
    World.allow w ~file:b.file "dom.allow"
      (World.allow w ~file:b.file "dom.allow" None b.file_allows)
      b.vb.pvb_attributes
  in
  let ctx =
    { held = SS.empty; spawn = false; handled = false; depth = 0; allow }
  in
  inline_lam ctx b.vb.pvb_expr

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

type result = {
  findings : Lint.finding list;
  globals : global list;  (** every module-level mutable/sync binding *)
  mutable_types : int;  (** record types with mutable fields (instance-local) *)
  suppressed : int;  (** findings covered by [@dom.allow] *)
  graph : Lockgraph.t;
  allow_sites : Lint.allow_site list;  (** [@dom.allow] sites, file order *)
}

let check_project (w : World.t) =
  let mutable_fields, mutable_types = collect_type_facts w.sources in
  (* pass 1: classify module-level bindings *)
  let globals =
    List.filter_map
      (fun (b : World.binding) ->
        let global what kind status =
          Some
            {
              g_key = b.key;
              g_file = b.file;
              g_line = b.vb.pvb_loc.Location.loc_start.pos_lnum;
              g_what = what;
              g_kind = kind;
              g_status = status;
            }
        in
        match classify_rhs ~mutable_fields b.vb.pvb_expr with
        | Imm -> None
        | Sync k -> global k (Sync k) (S_sync k)
        | Mut m -> global m (Mut m) S_frozen)
      w.bindings
    |> List.sort (fun a b -> compare (a.g_file, a.g_line) (b.g_file, b.g_line))
  in
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun g ->
      if not (Hashtbl.mem by_key g.g_key) then Hashtbl.replace by_key g.g_key g)
    globals;
  (* pass 2: walk every binding body *)
  let sites = ref [] in
  List.iter
    (walk_binding w ~globals:by_key ~mutable_fields ~emit:(fun s ->
         sites := s :: !sites))
    w.bindings;
  let sites = List.rev !sites in
  (* findings, with [@dom.allow] accounting *)
  let findings = ref [] and suppressed = ref 0 in
  let report rule s msg =
    match s.ctx.allow with
    | Some site ->
      use site;
      incr suppressed
    | None -> findings := finding rule ~file:s.b.file s.loc msg :: !findings
  in
  let reported s = reported_path s.b.rule_path in
  (* depth-zero code of an immediate (non-function) binding runs at module
     initialization, which happens-before any spawn *)
  let at_init s =
    (not (is_function_rhs s.b.vb.pvb_expr))
    && s.ctx.depth = 0 && not s.ctx.spawn
  in
  (* D1: judge every module-level mutable binding *)
  List.iter
    (fun g ->
      match g.g_kind with
      | Sync _ | Imm -> ()
      | Mut what ->
        let runtime =
          List.filter_map
            (function
              | { ev = Mention (k, write); _ } as s
                when k = g.g_key && not (at_init s) ->
                Some (s, write)
              | _ -> None)
            sites
        in
        if List.for_all (fun (_, write) -> not write) runtime then
          g.g_status <- S_frozen
        else begin
          let common =
            match runtime with
            | [] -> SS.empty
            | (s, _) :: tl ->
              List.fold_left
                (fun acc (s, _) -> SS.inter acc s.ctx.held)
                s.ctx.held tl
          in
          if not (SS.is_empty common) then
            g.g_status <- S_locked (SS.min_elt common)
          else begin
            g.g_status <- S_flagged;
            let unheld =
              List.filter (fun (s, _) -> SS.is_empty s.ctx.held) runtime
            in
            let offenders = if unheld <> [] then unheld else runtime in
            List.iter
              (fun (s, write) ->
                if reported s then
                  report "D1" s
                    (Printf.sprintf
                       "%s of module-level mutable %s (%s) in %s %s; every \
                        cross-domain access must hold one common mutex, or \
                        the state must become Atomic, Domain.DLS or an \
                        engine-instance field"
                       (if write then "write" else "read")
                       g.g_key what s.b.key
                       (if unheld = [] then
                          "holds no lock common to all accesses"
                        else "holds no lock")))
              offenders
          end
        end)
    globals;
  (* D2: mutable locals captured by Domain.spawn closures, racing when
     some capture of the same local writes it without a lock *)
  let caps =
    List.filter_map
      (function
        | { ev = Capture (name, what, write); _ } as s ->
          Some (s, name, what, write)
        | _ -> None)
      sites
  in
  List.iter
    (fun (s, name, what, write) ->
      let racy =
        List.exists
          (fun (s', name', _, write') ->
            write' && SS.is_empty s'.ctx.held && name' = name
            && s'.b.key = s.b.key)
          caps
      in
      if racy && SS.is_empty s.ctx.held && reported s then
        report "D2" s
          (Printf.sprintf
             "mutable local %s (%s) is captured by a Domain.spawn closure in \
              %s and %s without holding a lock; workers race on it — \
              protect it with a mutex or give each worker a disjoint slot \
              ([@dom.allow \"reason\"] if disjointness is provable)"
             name what s.b.key
             (if write then "written"
              else "read while another access writes it")))
    caps;
  (* D3: lock-order graph, direct and interprocedural.  acquires(f): the
     locks f takes, directly or through its callees *)
  let calls =
    List.filter_map
      (function
        | { ev = Call p; _ } as s ->
          Option.map (fun g -> (s, g)) (World.resolve w ~file:s.b.file p)
        | _ -> None)
      sites
  in
  let acqs =
    List.filter_map
      (function { ev = Acquire l; _ } as s -> Some (l, s) | _ -> None)
      sites
  in
  let acquirers =
    World.reach
      (List.map (fun (s, (g : World.binding)) -> (g.key, s.b.key)) calls)
  in
  let by_lock =
    List.map
      (fun l ->
        ( l,
          acquirers
            (List.filter_map
               (fun (l', s) -> if l' = l then Some (s.b.key, ()) else None)
               acqs) ))
      (List.sort_uniq compare (List.map fst acqs))
  in
  let acquires key =
    List.fold_left
      (fun acc (l, fns) -> if Hashtbl.mem fns key then SS.add l acc else acc)
      SS.empty by_lock
  in
  let graph = Lockgraph.create () in
  let edge s ~src ~dst =
    Lockgraph.add_edge graph ~src ~dst ~file:s.b.file
      ~line:s.loc.Location.loc_start.pos_lnum
  in
  List.iter
    (fun (l, s) ->
      Lockgraph.add_node graph l;
      SS.iter (fun h -> edge s ~src:h ~dst:l) s.ctx.held)
    acqs;
  List.iter
    (fun (s, (g : World.binding)) ->
      if not (SS.is_empty s.ctx.held) then
        SS.iter
          (fun h -> SS.iter (fun l -> edge s ~src:h ~dst:l) (acquires g.key))
          s.ctx.held)
    calls;
  List.iter
    (fun cycle ->
      let in_cycle n = List.mem n cycle in
      let witness =
        List.find_opt
          (fun (s, d, _, _) -> in_cycle s && in_cycle d)
          (Lockgraph.edges graph)
      in
      let file, line =
        match witness with
        | Some (_, _, f, l) -> (f, l)
        | None -> ("<unknown>", 0)
      in
      findings :=
        {
          Lint.rule = "D3";
          file;
          line;
          col = 0;
          msg =
            Printf.sprintf
              "lock-order cycle %s (potential deadlock): acquisition order \
               must be consistent across all domains"
              (String.concat " -> " (cycle @ [ List.hd cycle ]));
        }
        :: !findings)
    (Lockgraph.cycles graph);
  (* D4: performs must stay under their handler's domain; performer-ness
     propagates from callee to caller through unhandled calls *)
  let performs = List.filter (fun s -> s.ev = Perform) sites in
  let performers =
    World.reach
      (List.filter_map
         (fun (s, (g : World.binding)) ->
           if s.ctx.handled then None else Some (g.key, s.b.key))
         calls)
      (List.filter_map
         (fun s -> if s.ctx.handled then None else Some (s.b.key, ()))
         performs)
  in
  List.iter
    (fun s ->
      if s.ctx.spawn && (not s.ctx.handled) && reported s then
        report "D4" s
          (Printf.sprintf
             "effect perform inside a Domain.spawn closure in %s has no \
              handler on the spawned domain; effects must be handled \
              (Simthread.spawn's match_with) in the domain that performs \
              them"
             s.b.key))
    performs;
  List.iter
    (fun (s, (g : World.binding)) ->
      if
        s.ctx.spawn && (not s.ctx.handled) && reported s
        && Hashtbl.mem performers g.key
      then
        report "D4" s
          (Printf.sprintf
             "call to %s inside a Domain.spawn closure in %s reaches an \
              effect perform with no handler on the spawned domain; wrap \
              the computation in Simthread.spawn (or another handler) \
              before it performs"
             g.key s.b.key))
    calls;
  {
    findings = List.sort_uniq Lint.compare_finding !findings;
    globals;
    mutable_types;
    suppressed = !suppressed;
    graph;
    allow_sites =
      List.filter
        (fun (s : Lint.allow_site) -> s.as_attr = "dom.allow")
        (Lint.allow_sites w.registry);
  }
