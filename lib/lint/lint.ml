(* The lint passes' shared vocabulary.  See lint.mli. *)

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
   walks registers one site here, keyed by (attribute, file, line), so
   each site has a single use counter.  A site whose counter stays zero
   suppresses nothing: it is stale, and [--strict-suppressions] fails on
   it. *)
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

let allow_sites reg =
  List.sort
    (fun a b -> compare (a.as_file, a.as_line) (b.as_file, b.as_line))
    reg.reg_order

let stale_allow_sites reg =
  List.filter (fun s -> s.as_uses = 0) (allow_sites reg)

let parse_implementation path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.implementation lexbuf)

(* ------------------------------------------------------------------ *)
(* Rule tables and the vocabulary every pass shares                    *)
(* ------------------------------------------------------------------ *)

module Internal = struct
  (* R1: ambient time / randomness sources. *)
  let wallclock_idents =
    [ "Sys.time"; "Unix.time"; "Unix.gettimeofday"; "Unix.localtime";
      "Unix.gmtime"; "Unix.sleep"; "Unix.sleepf" ]

  (* R1: hash-table traversals whose order depends on internal layout. *)
  let unordered_traversals = [ "Hashtbl.iter"; "Hashtbl.fold" ]

  (* R2: CPU-side hierarchy traffic that must be charged through Env. *)
  let hierarchy_traffic =
    [ "Hierarchy.load"; "Hierarchy.store"; "Hierarchy.prefetch_batch" ]

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

  (* The registry site of one suppression attribute of any family: the
     one registered at (attribute, file, line), else a new one. *)
  let register reg ~file (a : Parsetree.attribute) =
    let attr = a.attr_name.txt and line = a.attr_loc.loc_start.pos_lnum in
    match Hashtbl.find_opt reg.reg_tbl (attr, file, line) with
    | Some s -> s
    | None ->
      let payload = Option.value (payload_string a.attr_payload) ~default:"" in
      let s =
        { as_attr = attr; as_file = file; as_line = line;
          as_payload = payload; as_uses = 0 }
      in
      Hashtbl.replace reg.reg_tbl (attr, file, line) s;
      reg.reg_order <- s :: reg.reg_order;
      s

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

  let finding rule ~file (loc : Location.t) msg =
    {
      rule;
      file;
      line = loc.loc_start.pos_lnum;
      col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      msg;
    }

  let use site = site.as_uses <- site.as_uses + 1
end
