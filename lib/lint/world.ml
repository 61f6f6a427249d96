(* The closed world shared by the project passes.  See world.mli. *)

open Lint.Internal

type source = string * string * Parsetree.structure

type binding = {
  key : string;
  file : string;
  rule_path : string;
  vb : Parsetree.value_binding;
  file_allows : Parsetree.attribute list;
}

type index = {
  by_key : (string, binding) Hashtbl.t;
      (** keys one file defines: its last definition *)
  by_short : (string * string, binding) Hashtbl.t;
      (** (file, last key component): every such binding, latest first
          under [find_all] *)
}

type t = {
  sources : source list;
  bindings : binding list;
  registry : Lint.allow_registry;
  index : index;
}

let module_name_of_file file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

let is_allow (a : Parsetree.attribute) =
  List.mem a.attr_name.txt [ "lint.allow"; "alloc.allow"; "dom.allow" ]

(* The top-level bindings of one file, nested [module X = struct ... end]
   included; a [@@@*.allow] covers the rest of its structure. *)
let file_bindings registry ((file, rule_path, str) : source) =
  let anon = ref 0 in
  let rec items prefix file_allows acc = function
    | [] -> acc
    | (si : Parsetree.structure_item) :: rest -> (
      match si.pstr_desc with
      | Pstr_attribute a when is_allow a ->
        ignore (register registry ~file a);
        items prefix (a :: file_allows) acc rest
      | Pstr_value (_, vbs) ->
        let bind acc (vb : Parsetree.value_binding) =
          let name =
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ }
            | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
              txt
            | _ ->
              incr anon;
              Printf.sprintf "<toplevel:%d>" !anon
          in
          { key = prefix ^ name; file; rule_path; vb; file_allows } :: acc
        in
        items prefix file_allows (List.fold_left bind acc vbs) rest
      | Pstr_module
          {
            pmb_name = { txt = Some sub; _ };
            pmb_expr = { pmod_desc = Pmod_structure s; _ };
            _;
          } ->
        let acc = items (prefix ^ sub ^ ".") file_allows acc s in
        items prefix file_allows acc rest
      | _ -> items prefix file_allows acc rest)
  in
  List.rev (items (module_name_of_file file ^ ".") [] [] str)

let build ?(registry = Lint.new_allow_registry ()) sources =
  let bindings = List.concat_map (file_bindings registry) sources in
  let by_key = Hashtbl.create 1024 and by_short = Hashtbl.create 1024 in
  let dups = ref [] in
  List.iter
    (fun b ->
      (* within one file a later definition shadows an earlier one *)
      (match Hashtbl.find_opt by_key b.key with
      | Some prev when prev.file <> b.file -> dups := b.key :: !dups
      | _ -> Hashtbl.replace by_key b.key b);
      let short =
        match String.rindex_opt b.key '.' with
        | Some i -> String.sub b.key (i + 1) (String.length b.key - i - 1)
        | None -> b.key
      in
      Hashtbl.add by_short (b.file, short) b)
    bindings;
  List.iter (Hashtbl.remove by_key) !dups;
  { sources; bindings; registry; index = { by_key; by_short } }

let resolve ?(among = fun _ -> true) w ~file path =
  if path = "" then None
  else if not (String.contains path '.') then
    List.find_opt among (Hashtbl.find_all w.index.by_short (file, path))
  else
    match Hashtbl.find_opt w.index.by_key path with
    | Some b when among b -> Some b
    | _ -> (
      (* alias / fully-qualified spelling: the unique key that is a
         dotted suffix of the path *)
      let rec suffixes i acc =
        match String.index_from_opt path i '.' with
        | None -> acc
        | Some j ->
          let s = String.sub path (j + 1) (String.length path - j - 1) in
          suffixes (j + 1)
            (match Hashtbl.find_opt w.index.by_key s with
            | Some b when among b -> b :: acc
            | _ -> acc)
      in
      match suffixes 0 [] with [ b ] -> Some b | _ -> None)

let allow w ~file family outer (attrs : Parsetree.attributes) =
  let first =
    List.fold_left
      (fun first (a : Parsetree.attribute) ->
        if a.attr_name.txt <> family then first
        else
          let site = register w.registry ~file a in
          if first = None then Some site else first)
      None attrs
  in
  if first = None then outer else first

type call =
  | Named of
      string * Location.t * (Asttypes.arg_label * Parsetree.expression) list
  | Opaque of Parsetree.expression list

let call (f : Parsetree.expression) args =
  let named (lid : Longident.t Location.loc) args =
    Named (strip_stdlib (path_of_lid lid.txt), lid.loc, args)
  in
  match f.pexp_desc with
  | Pexp_ident lid -> (
    match (strip_stdlib (path_of_lid lid.txt), args) with
    | "@@", [ (_, g); (_, x) ] | "|>", [ (_, x); (_, g) ] -> (
      match g.Parsetree.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident glid; _ }, gargs) ->
        named glid (gargs @ [ (Asttypes.Nolabel, x) ])
      | Pexp_ident glid -> named glid [ (Asttypes.Nolabel, x) ]
      | _ -> Opaque [ g; x ])
    | _ -> named lid args)
  | _ -> Opaque (f :: List.map snd args)

let rec body walk (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, default, _, b) ->
    Option.iter walk default;
    body walk b
  | Pexp_newtype (_, b) | Pexp_constraint (b, _) -> body walk b
  | _ -> e

let arity b =
  let rec go n (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (Optional _, _, _, e) -> go n e
    | Pexp_fun (_, _, _, e) -> go (n + 1) e
    | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> go n e
    | _ -> n
  in
  go 0 b.vb.pvb_expr

let children walk e =
  let it = { Ast_iterator.default_iterator with expr = (fun _ e -> walk e) } in
  Ast_iterator.default_iterator.expr it e

let reach edges =
  let succ = Hashtbl.create 1024 in
  (* [find_all] returns the latest addition first: add in reverse *)
  List.iter (fun (src, dst) -> Hashtbl.add succ src dst) (List.rev edges);
  fun seeds ->
    let label = Hashtbl.create 256 and work = Queue.create () in
    let mark k l =
      if not (Hashtbl.mem label k) then begin
        Hashtbl.replace label k l;
        Queue.add k work
      end
    in
    List.iter (fun (k, l) -> mark k l) seeds;
    while not (Queue.is_empty work) do
      let k = Queue.pop work in
      let l = Hashtbl.find label k in
      List.iter (fun d -> mark d l) (Hashtbl.find_all succ k)
    done;
    label
