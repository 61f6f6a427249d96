(* AST-level determinism & charge-discipline analyzer for the simulation.

   Walks every implementation file with [Ast_iterator] (compiler-libs) and
   enforces the contracts that keep the DES deterministic and every memory
   touch charged through [Env]/[Simthread]:

   R1  no wall-clock / ambient nondeterminism: [Sys.time], [Unix.*time*],
       [Stdlib.Random], randomized hash tables, and [Hashtbl.iter]/[fold]
       (whose order can leak into simulated state) are forbidden — only
       [Mutps_sim.Rng] may produce randomness.
   R2  charged memory: outside [lib/mem], CPU-side traffic must flow
       through [Env.load]/[store]/[prefetch_batch]; direct
       [Hierarchy.load]/[store]/[prefetch_batch] calls are forbidden.
   R3  commit discipline: reads of registered shared-mutable fields
       (seqlock versions, ring cursors, forwarding completion fields) must
       follow a commit-family call ([Env.commit],
       [Simthread.commit]/[delay]/[yield]/[suspend], or a queue operation
       that commits internally).  R3 needs the call graph, so
       [Interp.check_project] judges it; this per-file pass checks R1, R2
       and R4, and exports R3's tables below.
   R4  effect safety: [Simthread.delay]/[suspend]/[yield]/[commit]/[charge]
       only from code that holds a simulated-thread context (a [ctx]
       parameter, a [Simthread.spawn] callback, or an [Env.t]'s [.ctx]
       field); no [Obj.magic]; no physical (in)equality.

   Any finding can be suppressed at the expression with
   [[@lint.allow "R3"]], at the binding with [[@@lint.allow "R3"]], or for
   the rest of the file with [[@@@lint.allow "R3"]] (several rule names may
   be given in one string, space- or comma-separated; "all" matches every
   rule). *)

module SS = Set.Make (String)

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  msg : string;
}

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.msg

let finding_to_string f = Format.asprintf "%a" pp_finding f

let compare_finding a b =
  compare (a.file, a.line, a.col, a.rule, a.msg)
    (b.file, b.line, b.col, b.rule, b.msg)

(* ------------------------------------------------------------------ *)
(* Suppression sites                                                   *)
(* ------------------------------------------------------------------ *)

(* Every [@lint.allow] / [@alloc.allow] / [@dom.allow] attribute a pass
   walks registers one site here, keyed by (attribute, file, line) so the
   per-file and project passes — which walk the same attributes —
   share a single use counter.  A site whose counter stays zero suppresses
   nothing: it is stale, and [--strict-suppressions] fails on it. *)
type allow_site = {
  as_attr : string;  (** attribute name, e.g. "lint.allow" *)
  as_file : string;
  as_line : int;
  as_payload : string;  (** raw payload text (rule list or reason) *)
  mutable as_uses : int;
}

type allow_registry = {
  reg_tbl : (string * string * int, allow_site) Hashtbl.t;
  mutable reg_order : allow_site list;  (** reverse registration order *)
}

let new_allow_registry () = { reg_tbl = Hashtbl.create 32; reg_order = [] }

let register_allow reg ~attr ~file ~line ~payload =
  let key = (attr, file, line) in
  match Hashtbl.find_opt reg.reg_tbl key with
  | Some s -> s
  | None ->
    let s =
      { as_attr = attr; as_file = file; as_line = line;
        as_payload = payload; as_uses = 0 }
    in
    Hashtbl.replace reg.reg_tbl key s;
    reg.reg_order <- s :: reg.reg_order;
    s

let allow_sites reg =
  List.sort
    (fun a b -> compare (a.as_file, a.as_line) (b.as_file, b.as_line))
    reg.reg_order

let stale_allow_sites reg =
  List.filter (fun s -> s.as_uses = 0) (allow_sites reg)

(* ------------------------------------------------------------------ *)
(* Rule tables                                                         *)
(* ------------------------------------------------------------------ *)

(* R1: ambient time / randomness sources. *)
let wallclock_idents =
  [ "Sys.time"; "Unix.time"; "Unix.gettimeofday"; "Unix.localtime";
    "Unix.gmtime"; "Unix.sleep"; "Unix.sleepf" ]

(* R1: hash-table traversals whose order depends on internal layout. *)
let unordered_traversals = [ "Hashtbl.iter"; "Hashtbl.fold" ]

(* R2: CPU-side hierarchy traffic that must be charged through Env. *)
let hierarchy_traffic = [ "Hierarchy.load"; "Hierarchy.store"; "Hierarchy.prefetch_batch" ]

(* R3: registered shared-mutable fields.  Reads must follow a commit so
   the reader observes other threads' effects up to its own simulated
   time. *)
let shared_fields =
  [
    ("version", "Item seqlock version");
    ("head", "ring producer cursor");
    ("tail", "ring completion cursor");
    ("reclaimed", "ring reclaim cursor");
    ("resp_addr", "Fwd completion field");
    ("resp_bytes", "Fwd completion field");
    ("resp_value", "Fwd completion field");
  ]

(* R3: calls that flush the caller's accumulated cycles (directly or, for
   the queue operations, internally) and therefore dominate a subsequent
   shared-state read. *)
let commit_family =
  [
    "Env.commit"; "Simthread.commit"; "Simthread.delay"; "Simthread.yield";
    "Simthread.suspend"; "Condvar.wait"; "Ring.push"; "Ring.peek";
    "Ring.take_completed"; "Crmr.push"; "Crmr.next_batch";
    "Crmr.take_completed"; "Env.assert_committed";
  ]

(* R4: operations that require a simulated-thread context. *)
let simthread_ops =
  [
    "Simthread.delay"; "Simthread.yield"; "Simthread.suspend";
    "Simthread.commit"; "Simthread.charge"; "Condvar.wait";
  ]

let forbidden_obj = [ "Obj.magic"; "Obj.repr"; "Obj.obj" ]

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let strip_stdlib p =
  if String.length p > 7 && String.sub p 0 7 = "Stdlib." then
    String.sub p 7 (String.length p - 7)
  else p

(* [matches "Hierarchy.load" path] accepts both the alias form
   ("Hierarchy.load") and the fully qualified one
   ("Mutps_mem.Hierarchy.load"). *)
let matches target path =
  path = target
  || (String.length path > String.length target
      && String.sub path
           (String.length path - String.length target - 1)
           (String.length target + 1)
         = "." ^ target)

let matches_any targets path = List.exists (fun t -> matches t path) targets

let path_of_lid lid =
  match Longident.flatten lid with
  | parts -> String.concat "." parts
  | exception _ -> ""

(* The string constant a suppression attribute carries: its rule list or
   its reason. *)
let payload_string (p : Parsetree.payload) =
  match p with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

(* A [lint.allow] payload: space- or comma-separated rule names. *)
let rules_of_payload p =
  match payload_string p with
  | Some s ->
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char ',')
    |> List.filter (fun r -> r <> "")
    |> SS.of_list
  | None -> SS.empty

(* The registry site of one suppression attribute of any family. *)
let register reg ~file (a : Parsetree.attribute) =
  register_allow reg ~attr:a.attr_name.txt ~file
    ~line:a.attr_loc.Location.loc_start.pos_lnum
    ~payload:(Option.value (payload_string a.attr_payload) ~default:"")

(* One suppression-stack entry per [@lint.allow] attribute, each carrying
   its registry site (when a registry is attached) for use counting. *)
let allow_entries ?registry ~file (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt = "lint.allow" then
        Some
          ( rules_of_payload a.attr_payload,
            Option.map (fun reg -> register reg ~file a) registry )
      else None)
    attrs

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

type state = {
  file : string;  (** path used in reports *)
  rule_path : string;  (** path used for directory-scoped exemptions *)
  on_suppressed : rule:string -> loc:Location.t -> unit;
      (** called instead of recording when a finding is [@lint.allow]ed;
          drivers use it for suppression accounting *)
  registry : allow_registry option;
      (** suppression-site registry for stale-attribute accounting *)
  mutable findings : finding list;
  mutable sims : bool list;
      (** per enclosing function, innermost first: does it hold a
          simulated-thread context *)
  mutable allows : (SS.t * allow_site option) list;  (** suppression stack *)
  mutable force_sim : bool;
      (** the next lambda visited is a [Simthread.spawn] callback *)
}

(* [in_dir dir path]: [dir] is a run of whole components of [path] — a
   prefix ["dir/"] or an infix ["/dir/"], so "examples/mylib/mem/x.ml" is
   not under "lib/mem". *)
let in_dir dir path =
  let has_at i sub =
    i + String.length sub <= String.length path
    && String.sub path i (String.length sub) = sub
  in
  let mid = "/" ^ dir ^ "/" in
  let rec inside i =
    i < String.length path && (has_at i mid || inside (i + 1))
  in
  has_at 0 (dir ^ "/") || inside 0

let cur_sim st = match st.sims with s :: _ -> s | [] -> assert false

let find_allow st rule =
  List.find_opt (fun (s, _) -> SS.mem rule s || SS.mem "all" s) st.allows

let finding rule ~file (loc : Location.t) msg =
  {
    rule;
    file;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    msg;
  }

let use site = site.as_uses <- site.as_uses + 1

let report st rule (loc : Location.t) msg =
  match find_allow st rule with
  | Some (_, site) ->
    Option.iter use site;
    st.on_suppressed ~rule ~loc
  | None -> st.findings <- finding rule ~file:st.file loc msg :: st.findings

let rec pattern_binds_ctx (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt = ("ctx" | "_ctx"); _ } -> true
  | Ppat_alias (p, { txt = ("ctx" | "_ctx"); _ }) -> pattern_binds_ctx p || true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_binds_ctx p
  | Ppat_tuple ps -> List.exists pattern_binds_ctx ps
  | _ -> false

(* First positional argument of a Simthread call: an [Env.t]'s [.ctx] field
   also proves the caller holds a thread context. *)
let arg_is_ctx_field (args : (Asttypes.arg_label * Parsetree.expression) list) =
  match
    List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args
  with
  | Some (_, { pexp_desc = Pexp_field (_, { txt; _ }); _ }) -> (
    match Longident.last txt with "ctx" -> true | _ -> false)
  | _ -> false

let check_ident st (loc : Location.t) path =
  let p = strip_stdlib path in
  (* R1: wall clock and ambient randomness *)
  if List.mem p wallclock_idents then
    report st "R1" loc
      (Printf.sprintf
         "%s reads the wall clock; simulated time must come from Engine.now \
          / Simthread.now"
         p);
  if String.length p > 7 && String.sub p 0 7 = "Random." then
    report st "R1" loc
      (Printf.sprintf
         "%s is ambient randomness; only Mutps_sim.Rng (seeded, splittable) \
          may produce random values"
         p);
  if List.mem p unordered_traversals then
    report st "R1" loc
      (Printf.sprintf
         "%s traverses in unspecified order, which can leak into simulated \
          state; sort the keys (e.g. Hashtbl.to_seq + List.sort) or use an \
          ordered map"
         p);
  (* R2: uncharged memory traffic *)
  if
    (not (in_dir "lib/mem" st.rule_path))
    && matches_any hierarchy_traffic path
  then
    report st "R2" loc
      (Printf.sprintf
         "%s bypasses the charge discipline; route traffic through Env.load \
          / Env.store / Env.prefetch_batch so cycles land in the thread's \
          accumulator"
         path);
  (* R4: Obj escape hatches *)
  if List.mem p forbidden_obj then
    report st "R4" loc (p ^ " defeats the type system; forbidden in the simulation")

let check_apply st (loc : Location.t) path args =
  let p = strip_stdlib path in
  (* R1: randomized hash tables *)
  (if matches "Hashtbl.create" p then
     let randomized =
       List.exists
         (fun ((l : Asttypes.arg_label), (e : Parsetree.expression)) ->
           match l with
           | Labelled "random" | Optional "random" -> (
             match e.pexp_desc with
             | Pexp_construct ({ txt = Lident "false"; _ }, None) -> false
             | _ -> true)
           | _ -> false)
         args
     in
     if randomized then
       report st "R1" loc
         "Hashtbl.create ~random:true seeds iteration order from the \
          process; use the default deterministic layout");
  (* R4: physical equality *)
  (match p with
  | "==" | "!=" ->
    report st "R4" loc
      "physical (in)equality on simulation values is \
       representation-dependent; use structural comparison or an explicit id"
  | _ -> ());
  (* R4: Simthread operations need a thread context *)
  if
    matches_any simthread_ops path
    && (not (in_dir "lib/sim" st.rule_path))
    && (not (cur_sim st))
    && not (arg_is_ctx_field args)
  then
    report st "R4" loc
      (Printf.sprintf
         "%s is only legal from a simulated thread (a [ctx] parameter, a \
          Simthread.spawn callback, or an Env.t's .ctx)"
         path)

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let with_allows st entries f =
  if entries = [] then f ()
  else begin
    let saved = st.allows in
    st.allows <- entries @ st.allows;
    Fun.protect ~finally:(fun () -> st.allows <- saved) f
  end

let with_scope st sim f =
  st.sims <- sim :: st.sims;
  Fun.protect ~finally:(fun () -> st.sims <- List.tl st.sims) f

let is_spawn path = matches "Simthread.spawn" path

let iterator st =
  let open Ast_iterator in
  let entries attrs = allow_entries ?registry:st.registry ~file:st.file attrs in
  let expr it (e : Parsetree.expression) =
    with_allows st (entries e.pexp_attributes) @@ fun () ->
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
      check_ident st loc (path_of_lid txt);
      default_iterator.expr it e
    | Pexp_fun (_, _, pat, _) ->
      let sim = cur_sim st || st.force_sim || pattern_binds_ctx pat in
      st.force_sim <- false;
      with_scope st sim (fun () -> default_iterator.expr it e)
    | Pexp_function _ ->
      let sim = cur_sim st || st.force_sim in
      st.force_sim <- false;
      with_scope st sim (fun () -> default_iterator.expr it e)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
      let path = path_of_lid txt in
      check_ident st loc path;
      check_apply st loc path args;
      if is_spawn path then
        (* the function argument of spawn runs as a simulated thread *)
        List.iter
          (fun ((_, a) : Asttypes.arg_label * Parsetree.expression) ->
            (match a.pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> st.force_sim <- true
            | _ -> ());
            it.expr it a;
            st.force_sim <- false)
          args
      else List.iter (fun (_, a) -> it.expr it a) args
    | _ -> default_iterator.expr it e
  in
  let value_binding it (vb : Parsetree.value_binding) =
    with_allows st (entries vb.pvb_attributes) @@ fun () ->
    default_iterator.value_binding it vb
  in
  let structure_item it (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_attribute a when a.attr_name.txt = "lint.allow" ->
      (* [@@@lint.allow "..."] suppresses for the rest of the file *)
      st.allows <- entries [ a ] @ st.allows
    | Pstr_value _ ->
      (* a binding of a structure, local modules included, starts outside
         any simulated thread *)
      with_scope st false (fun () -> default_iterator.structure_item it si)
    | _ -> default_iterator.structure_item it si
  in
  { default_iterator with expr; value_binding; structure_item }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let parse_implementation path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.implementation lexbuf)

let check_structure ?(file = "<string>") ?(rule_path = file)
    ?(on_suppressed = fun ~rule:_ ~loc:_ -> ()) ?registry
    (str : Parsetree.structure) =
  let st =
    {
      file;
      rule_path;
      on_suppressed;
      registry;
      findings = [];
      sims = [ false ];
      allows = [];
      force_sim = false;
    }
  in
  let it = iterator st in
  it.structure it str;
  List.sort compare_finding st.findings

let check_file ?rule_path path =
  let rule_path = match rule_path with Some p -> p | None -> path in
  match parse_implementation path with
  | str -> Ok (check_structure ~file:path ~rule_path str)
  | exception Syntaxerr.Error _ ->
    Error (Printf.sprintf "%s: syntax error" path)
  | exception Sys_error m -> Error m

let check_string ?(file = "<string>") ?(rule_path = file) src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | str -> Ok (check_structure ~file ~rule_path str)
  | exception Syntaxerr.Error _ ->
    Error (Printf.sprintf "%s: syntax error" file)

(* Shared vocabulary for the project passes (World and its clients). *)
module Internal = struct
  let matches = matches
  let matches_any = matches_any
  let path_of_lid = path_of_lid
  let strip_stdlib = strip_stdlib
  let in_dir = in_dir
  let commit_family = commit_family
  let shared_fields = shared_fields
  let hierarchy_traffic = hierarchy_traffic
  let allow_entries = allow_entries
  let register = register
  let finding = finding
  let use = use
end
