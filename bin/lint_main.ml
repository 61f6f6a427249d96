(* Driver for the determinism & charge-discipline lint, the
   zero-allocation certifier and the domain-safety certifier (lib/lint).

   Usage: mutps_lint [--format text|json] [--strict-suppressions]
                     [--lock-graph FILE] [DIR-OR-FILE ...]
                                          (default roots: lib bin bench examples)

   Every file is parsed once and checked with the per-file rules (R1,
   R2, R4).  The parsed files then become one closed world
   (lib/lint/world.ml: one walk over the top-level bindings, one function
   index and resolver, one suppression registry, one worklist) that three
   client passes judge: the interprocedural charge pass (interp.ml), the
   one R3 rule, which judges commits across call sites and catches R2
   leaks through sanctioned raw-access helpers; the allocation certifier
   (alloc.ml), which proves every
   function reachable from a [@hot] root free of heap allocation (A1),
   boxing (A2) and observability escapes (A3); and the domain-safety
   certifier (dom.ml), which proves module-level mutable state
   synchronized (D1), spawn captures protected (D2), the lock-order
   graph acyclic (D3) and effect performs handler-dominated per domain
   (D4).  A lone file is a world of one: a function with no call site
   there is an entry point, so R3 judges it as if called uncommitted.

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

let status_string = function
  | Dom.S_sync what -> "sync:" ^ what
  | Dom.S_frozen -> "frozen"
  | Dom.S_locked l -> "locked:" ^ l
  | Dom.S_flagged -> "flagged"

let print_json findings ~r_suppressed ~(alloc : Alloc.result)
    ~(dom : Dom.result) ~lint_sites =
  let b = Buffer.create 65536 in
  let esc = Mutps_trace.Json.escape in
  (* [item] on each of [xs], [sep] between two *)
  let list sep item xs =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b sep;
        item x)
      xs
  in
  let quoted s = Printf.bprintf b "\"%a\"" esc s in
  let allow_sites =
    list "," (fun (s : Lint.allow_site) ->
        Printf.bprintf b
          "\n      { \"attr\": \"%a\", \"file\": \"%a\", \"line\": %d, \
           \"uses\": %d, \"payload\": \"%a\" }"
          esc s.as_attr esc s.as_file s.as_line s.as_uses esc s.as_payload)
  in
  Buffer.add_string b "{\n  \"findings\": [";
  list "," (fun (f : Lint.finding) ->
      Printf.bprintf b
        "\n    { \"file\": \"%a\", \"line\": %d, \"col\": %d, \"rule\": \
         \"%a\", \"message\": \"%a\" }"
        esc f.file f.line f.col esc f.rule esc f.msg)
    findings;
  Buffer.add_string b (if findings = [] then "],\n" else "\n  ],\n");
  Buffer.add_string b "  \"suppressed\": { ";
  list ", " (fun r ->
      Printf.bprintf b "\"%a\": %d" esc r
        (List.length (List.filter (fun (r', _) -> r' = r) r_suppressed)))
    (List.sort_uniq compare (List.map fst r_suppressed));
  Buffer.add_string b " },\n  \"lint_allow_sites\": [";
  allow_sites lint_sites;
  Buffer.add_string b "],\n  \"alloc\": {\n    \"hot_roots\": [";
  list ", " quoted alloc.Alloc.hot_roots;
  Printf.bprintf b "],\n    \"certified\": %d,\n    \"allow_sites\": ["
    (List.length alloc.Alloc.hot_set);
  list "," (fun (s : Lint.allow_site) ->
      Printf.bprintf b
        "\n      { \"file\": \"%a\", \"line\": %d, \"uses\": %d, \"reason\": \
         \"%a\" }"
        esc s.as_file s.as_line s.as_uses esc s.as_payload)
    alloc.Alloc.allow_sites;
  Buffer.add_string b "]\n  },\n  \"dom\": {\n    \"globals\": [";
  list "," (fun (gl : Dom.global) ->
      Printf.bprintf b
        "\n      { \"key\": \"%a\", \"file\": \"%a\", \"line\": %d, \"what\": \
         \"%a\", \"status\": \"%a\" }"
        esc gl.g_key esc gl.g_file gl.g_line esc gl.g_what esc
        (status_string gl.g_status))
    dom.Dom.globals;
  Printf.bprintf b "],\n    \"mutable_types\": %d,\n    \"lock_nodes\": ["
    dom.Dom.mutable_types;
  let g = dom.Dom.graph in
  list ", " quoted (Dom.Lockgraph.nodes g);
  Buffer.add_string b "],\n    \"lock_edges\": [";
  list "," (fun (src, dst, file, line) ->
      Printf.bprintf b
        "\n      { \"src\": \"%a\", \"dst\": \"%a\", \"file\": \"%a\", \
         \"line\": %d }"
        esc src esc dst esc file line)
    (Dom.Lockgraph.edges g);
  Buffer.add_string b "],\n    \"lock_cycles\": [";
  list ", " (fun cyc ->
      Buffer.add_char b '[';
      list ", " quoted cyc;
      Buffer.add_char b ']')
    (Dom.Lockgraph.cycles g);
  Buffer.add_string b "],\n    \"allow_sites\": [";
  allow_sites dom.Dom.allow_sites;
  Buffer.add_string b "]\n  }\n}\n";
  print_string (Buffer.contents b)

let () =
  let format = ref `Text
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
  (* parse once; share the AST between the per-file and project passes *)
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
  let per_file =
    List.concat_map
      (fun (file, rule_path, str) ->
        Lint.check_structure ~file ~rule_path ~on_suppressed ~registry str)
      parsed
  in
  (* the project passes share one closed world *)
  let world = World.build ~registry parsed in
  let interp = Interp.check_project ~on_suppressed world in
  let alloc = Alloc.check_project world in
  let dom = Dom.check_project world in
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Dom.Lockgraph.to_dot dom.Dom.graph);
      close_out oc)
    !lock_graph;
  let findings =
    List.sort Lint.compare_finding
      (per_file @ interp @ alloc.Alloc.findings @ dom.Dom.findings)
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
  let a_used =
    List.fold_left
      (fun acc (s : Lint.allow_site) -> acc + s.as_uses)
      0 alloc.Alloc.allow_sites
  in
  let a_sites = List.length alloc.Alloc.allow_sites in
  let d_total = dom.Dom.suppressed in
  let d_sites = List.length dom.Dom.allow_sites in
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
    Printf.printf
      "mutps_alloc: %d hot root%s, %d function%s certified zero-alloc, %d \
       [@alloc.allow] suppression%s\n"
      (List.length alloc.Alloc.hot_roots)
      (if List.length alloc.Alloc.hot_roots = 1 then "" else "s")
      (List.length alloc.Alloc.hot_set)
      (if List.length alloc.Alloc.hot_set = 1 then "" else "s")
      a_sites
      (if a_sites = 1 then "" else "s");
    let flagged =
      List.length
        (List.filter
           (fun (g : Dom.global) -> g.Dom.g_status = Dom.S_flagged)
           dom.Dom.globals)
    in
    let locks = List.length (Dom.Lockgraph.nodes dom.Dom.graph)
    and cycles = List.length (Dom.Lockgraph.cycles dom.Dom.graph) in
    Printf.printf
      "mutps_dom: %d module-level mutable/sync binding%s certified (%d \
       flagged), %d lock%s, %d lock-order cycle%s, %d [@dom.allow] \
       suppression%s\n"
      (List.length dom.Dom.globals)
      (if List.length dom.Dom.globals = 1 then "" else "s")
      flagged locks
      (if locks = 1 then "" else "s")
      cycles
      (if cycles = 1 then "" else "s")
      d_sites
      (if d_sites = 1 then "" else "s")
  end
