(* Driver for the determinism & charge-discipline lint, the
   zero-allocation certifier and the domain-safety certifier (lib/lint).

   Usage: mutps_lint [--format text|json] [--intra-only]
                     [--strict-suppressions] [--lock-graph FILE]
                     [DIR-OR-FILE ...]
                                          (default roots: lib bin bench examples)

   Runs in project mode: every file is parsed once and checked with the
   intra-procedural rules (R1/R2/R4 plus everything but the lexical R3).
   The parsed files then become one closed world (lib/lint/world.ml: one
   walk over the top-level bindings, one function index and resolver,
   one suppression registry, one worklist) that three client passes
   judge: the interprocedural charge pass (interp.ml), which refines R3
   across call sites and catches R2 leaks through sanctioned raw-access
   helpers; the allocation certifier (alloc.ml), which proves every
   function reachable from a [@hot] root free of heap allocation (A1),
   boxing (A2) and observability escapes (A3); and the domain-safety
   certifier (dom.ml), which proves module-level mutable state
   synchronized (D1), spawn captures protected (D2), the lock-order
   graph acyclic (D3) and effect performs handler-dominated per domain
   (D4).  [--intra-only] restores the purely lexical R3 rule and builds
   no world — useful when linting a lone file out of context.

   Emits "file:line:col: [RULE] message" per finding (the shape the CI
   problem matcher parses), or a JSON object with [--format json], and
   exits non-zero when any finding or parse error is produced.
   Suppressions are accounted per rule family (R vs A vs D) and stale
   sites of all three attributes ([@lint.allow], [@alloc.allow],
   [@dom.allow], one shared registry) — ones that no longer cover any
   would-be finding — are listed so they can be deleted;
   [--strict-suppressions] turns any stale site into a non-zero exit (CI
   runs this).  [--lock-graph FILE] writes the D3 lock-order graph as
   DOT.  Wired to `dune build @lint`; see DESIGN.md §5 ("Determinism
   invariants" and "The closed world the project passes share"), §9 and
   §10. *)

module Lint = Mutps_lint.Lint
module Interp = Mutps_lint.Interp
module Alloc = Mutps_lint.Alloc
module Dom = Mutps_lint.Dom
module World = Mutps_lint.World

let rec collect acc path =
  let base = Filename.basename path in
  if base = "_build" || (String.length base > 0 && base.[0] = '.') then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left (fun acc f -> collect acc (Filename.concat path f)) acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* The same bytes as Mutps_trace.Json.escape: the driver links only
   mutps.lint and compiler-libs. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let status_string = function
  | Dom.S_sync what -> "sync:" ^ what
  | Dom.S_frozen -> "frozen"
  | Dom.S_locked l -> "locked:" ^ l
  | Dom.S_flagged -> "flagged"

let json_allow_sites (sites : Lint.allow_site list) =
  String.concat ","
    (List.map
       (fun (s : Lint.allow_site) ->
         Printf.sprintf
           "\n      { \"attr\": \"%s\", \"file\": \"%s\", \"line\": %d, \
            \"uses\": %d, \"payload\": \"%s\" }"
           (json_escape s.Lint.as_attr) (json_escape s.Lint.as_file)
           s.Lint.as_line s.Lint.as_uses
           (json_escape s.Lint.as_payload))
       sites)

let print_json findings ~r_suppressed ~(alloc : Alloc.result option)
    ~(dom : Dom.result option) ~lint_sites =
  print_string "{\n  \"findings\": [";
  List.iteri
    (fun i (f : Lint.finding) ->
      Printf.printf "%s\n    { \"file\": \"%s\", \"line\": %d, \"col\": %d, \
                     \"rule\": \"%s\", \"message\": \"%s\" }"
        (if i = 0 then "" else ",")
        (json_escape f.Lint.file) f.Lint.line f.Lint.col
        (json_escape f.Lint.rule) (json_escape f.Lint.msg))
    findings;
  print_string (if findings = [] then "],\n" else "\n  ],\n");
  let rules = List.sort_uniq compare (List.map fst r_suppressed) in
  Printf.printf "  \"suppressed\": { %s },\n"
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf "\"%s\": %d" (json_escape r)
              (List.length (List.filter (fun (r', _) -> r' = r) r_suppressed)))
          rules));
  Printf.printf "  \"lint_allow_sites\": [%s],\n" (json_allow_sites lint_sites);
  (match alloc with
  | None -> print_string "  \"alloc\": null,\n"
  | Some a ->
    Printf.printf
      "  \"alloc\": {\n\
      \    \"hot_roots\": [%s],\n\
      \    \"certified\": %d,\n\
      \    \"allow_sites\": [%s]\n\
      \  },\n"
      (String.concat ", "
         (List.map (fun r -> "\"" ^ json_escape r ^ "\"") a.Alloc.hot_roots))
      (List.length a.Alloc.hot_set)
      (String.concat ","
         (List.map
            (fun (s : Lint.allow_site) ->
              Printf.sprintf
                "\n      { \"file\": \"%s\", \"line\": %d, \"uses\": %d, \
                 \"reason\": \"%s\" }"
              (json_escape s.as_file) s.as_line s.as_uses
              (json_escape s.as_payload))
            a.Alloc.allow_sites)));
  (match dom with
  | None -> print_string "  \"dom\": null\n"
  | Some d ->
    let g = d.Dom.graph in
    Printf.printf
      "  \"dom\": {\n\
      \    \"globals\": [%s],\n\
      \    \"mutable_types\": %d,\n\
      \    \"lock_nodes\": [%s],\n\
      \    \"lock_edges\": [%s],\n\
      \    \"lock_cycles\": [%s],\n\
      \    \"allow_sites\": [%s]\n\
      \  }\n"
      (String.concat ","
         (List.map
            (fun (gl : Dom.global) ->
              Printf.sprintf
                "\n      { \"key\": \"%s\", \"file\": \"%s\", \"line\": %d, \
                 \"what\": \"%s\", \"status\": \"%s\" }"
                (json_escape gl.Dom.g_key) (json_escape gl.Dom.g_file)
                gl.Dom.g_line (json_escape gl.Dom.g_what)
                (json_escape (status_string gl.Dom.g_status)))
            d.Dom.globals))
      d.Dom.mutable_types
      (String.concat ", "
         (List.map
            (fun n -> "\"" ^ json_escape n ^ "\"")
            (Dom.Lockgraph.nodes g)))
      (String.concat ","
         (List.map
            (fun (src, dst, file, line) ->
              Printf.sprintf
                "\n      { \"src\": \"%s\", \"dst\": \"%s\", \"file\": \
                 \"%s\", \"line\": %d }"
                (json_escape src) (json_escape dst) (json_escape file) line)
            (Dom.Lockgraph.edges g)))
      (String.concat ", "
         (List.map
            (fun cyc ->
              "["
              ^ String.concat ", "
                  (List.map (fun n -> "\"" ^ json_escape n ^ "\"") cyc)
              ^ "]")
            (Dom.Lockgraph.cycles g)))
      (json_allow_sites d.Dom.allow_sites));
  print_string "}\n"

let () =
  let format = ref `Text
  and intra_only = ref false
  and strict_suppressions = ref false
  and lock_graph = ref None in
  let roots =
    let rec parse acc = function
      | "--format" :: "json" :: rest ->
        format := `Json;
        parse acc rest
      | "--format" :: "text" :: rest ->
        format := `Text;
        parse acc rest
      | "--format" :: _ ->
        prerr_endline "mutps_lint: --format expects 'text' or 'json'";
        exit 2
      | "--intra-only" :: rest ->
        intra_only := true;
        parse acc rest
      | "--strict-suppressions" :: rest ->
        strict_suppressions := true;
        parse acc rest
      | "--lock-graph" :: file :: rest when file <> "" && file.[0] <> '-' ->
        lock_graph := Some file;
        parse acc rest
      | "--lock-graph" :: _ ->
        prerr_endline "mutps_lint: --lock-graph expects an output FILE";
        exit 2
      | r :: rest -> parse (r :: acc) rest
      | [] -> List.rev acc
    in
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> [ "lib"; "bin"; "bench"; "examples" ]
    | roots -> roots
  in
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  List.iter (Printf.eprintf "mutps_lint: no such path %s\n%!") missing;
  let files =
    List.fold_left collect [] (List.filter Sys.file_exists roots)
    |> List.sort compare
  in
  let errors = ref (List.length missing) in
  (* parse once; share the AST between the intra and project passes *)
  let parsed =
    List.filter_map
      (fun f ->
        match Lint.parse_implementation f with
        | str -> Some (f, f, str)
        | exception Syntaxerr.Error _ ->
          incr errors;
          Printf.eprintf "mutps_lint: %s: syntax error\n%!" f;
          None
        | exception Sys_error m ->
          incr errors;
          Printf.eprintf "mutps_lint: %s\n%!" m;
          None)
      files
  in
  (* suppression accounting: every [@lint.allow] that actually covered a
     would-be finding, by rule *)
  let r_suppressed = ref [] in
  let on_suppressed ~rule ~loc:(_ : Location.t) =
    r_suppressed := (rule, ()) :: !r_suppressed
  in
  (* one registry shared by every pass: use counters of all three
     suppression families accumulate so a site is stale only if no pass
     consumed it *)
  let registry = Lint.new_allow_registry () in
  let intra =
    List.concat_map
      (fun (file, rule_path, str) ->
        Lint.check_structure ~file ~rule_path ~intra_r3:!intra_only
          ~on_suppressed ~registry str)
      parsed
  in
  (* the project passes share one closed world *)
  let world =
    if !intra_only then None else Some (World.build ~registry parsed)
  in
  let interp =
    match world with
    | Some w -> Interp.check_project ~on_suppressed w
    | None -> []
  in
  let alloc = Option.map Alloc.check_project world in
  let alloc_findings =
    match alloc with Some a -> a.Alloc.findings | None -> []
  in
  let dom = Option.map Dom.check_project world in
  let dom_findings = match dom with Some d -> d.Dom.findings | None -> [] in
  (match (!lock_graph, dom) with
  | Some file, Some d ->
    let oc = open_out file in
    output_string oc (Dom.Lockgraph.to_dot d.Dom.graph);
    close_out oc
  | Some _, None ->
    prerr_endline "mutps_lint: --lock-graph needs the project passes \
                   (drop --intra-only)"
  | None, _ -> ());
  let findings =
    List.sort Lint.compare_finding
      (intra @ interp @ alloc_findings @ dom_findings)
  in
  (* the A sites are listed in their own "alloc" section *)
  let is_alloc (s : Lint.allow_site) = s.as_attr = "alloc.allow" in
  let lint_sites =
    List.filter (fun s -> not (is_alloc s)) (Lint.allow_sites registry)
  in
  (match !format with
  | `Json ->
    print_json findings ~r_suppressed:!r_suppressed ~alloc ~dom ~lint_sites
  | `Text ->
    List.iter (fun f -> print_endline (Lint.finding_to_string f)) findings);
  (* per-family suppression summary + stale-site report, on stderr so it
     shows in CI logs without disturbing the parseable stdout *)
  let r_total = List.length !r_suppressed in
  let a_used, a_sites =
    match alloc with
    | None -> (0, 0)
    | Some a ->
      ( List.fold_left
          (fun acc (s : Lint.allow_site) -> acc + s.as_uses)
          0 a.Alloc.allow_sites,
        List.length a.Alloc.allow_sites )
  in
  let d_total = match dom with Some d -> d.Dom.suppressed | None -> 0 in
  let d_sites =
    match dom with Some d -> List.length d.Dom.allow_sites | None -> 0
  in
  if r_total > 0 || a_sites > 0 || d_sites > 0 then
    Printf.eprintf
      "mutps_lint: suppressions: R-family %d ([@lint.allow]), A-family %d \
       finding%s across %d [@alloc.allow] site%s, D-family %d finding%s \
       across %d [@dom.allow] site%s\n"
      r_total a_used
      (if a_used = 1 then "" else "s")
      a_sites
      (if a_sites = 1 then "" else "s")
      d_total
      (if d_total = 1 then "" else "s")
      d_sites
      (if d_sites = 1 then "" else "s");
  (* stale-suppression report: all three attribute families, the R and
     D sites first *)
  let a_stale, rd_stale =
    List.partition is_alloc (Lint.stale_allow_sites registry)
  in
  List.iter
    (fun (s : Lint.allow_site) ->
      Printf.eprintf
        "mutps_lint: stale [@%s] at %s:%d (%S) — covers no finding, delete \
         it\n"
        s.Lint.as_attr s.Lint.as_file s.Lint.as_line s.Lint.as_payload)
    (rd_stale @ a_stale);
  let n_stale = List.length rd_stale + List.length a_stale in
  if !strict_suppressions && n_stale > 0 then begin
    Printf.eprintf
      "mutps_lint: --strict-suppressions: %d stale suppression site%s\n"
      n_stale
      (if n_stale = 1 then "" else "s");
    exit 1
  end;
  let n = List.length findings in
  if n > 0 || !errors > 0 then begin
    Printf.eprintf "mutps_lint: %d finding%s, %d error%s in %d files\n" n
      (if n = 1 then "" else "s")
      !errors
      (if !errors = 1 then "" else "s")
      (List.length files);
    exit 1
  end
  else if !format = `Text then begin
    Printf.printf
      "mutps_lint: clean (%d files, rules R1-R4 + interprocedural)\n"
      (List.length files);
    (match alloc with
    | Some a ->
      Printf.printf
        "mutps_alloc: %d hot root%s, %d function%s certified zero-alloc, %d \
         [@alloc.allow] suppression%s\n"
        (List.length a.Alloc.hot_roots)
        (if List.length a.Alloc.hot_roots = 1 then "" else "s")
        (List.length a.Alloc.hot_set)
        (if List.length a.Alloc.hot_set = 1 then "" else "s")
        a_sites
        (if a_sites = 1 then "" else "s")
    | None -> ());
    match dom with
    | Some d ->
      let flagged =
        List.length
          (List.filter
             (fun (g : Dom.global) -> g.Dom.g_status = Dom.S_flagged)
             d.Dom.globals)
      in
      Printf.printf
        "mutps_dom: %d module-level mutable/sync binding%s certified (%d \
         flagged), %d lock%s, %d lock-order cycle%s, %d [@dom.allow] \
         suppression%s\n"
        (List.length d.Dom.globals)
        (if List.length d.Dom.globals = 1 then "" else "s")
        flagged
        (List.length (Dom.Lockgraph.nodes d.Dom.graph))
        (if List.length (Dom.Lockgraph.nodes d.Dom.graph) = 1 then "" else "s")
        (List.length (Dom.Lockgraph.cycles d.Dom.graph))
        (if List.length (Dom.Lockgraph.cycles d.Dom.graph) = 1 then ""
         else "s")
        d_sites
        (if d_sites = 1 then "" else "s")
    | None -> ()
  end
