(* Tests for the determinism & charge-discipline lint (lib/lint) and the
   determinism regression the lint exists to protect: two runs with the
   same seed must produce byte-identical stats digests, with the runtime
   [debug_checks] verifier enabled. *)

module Lint = Mutps_lint.Lint
module Interp = Mutps_lint.Interp
module Alloc = Mutps_lint.Alloc
module World = Mutps_lint.World
module Engine = Mutps_sim.Engine
open Mutps_experiments

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* dune runtest runs us inside test/lint; dune exec from the workspace
   root — accept either *)
let fixture_dir =
  if Sys.file_exists "fixtures" then "fixtures" else "test/lint/fixtures"

let rec collect_ml acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left (fun acc f -> collect_ml acc (Filename.concat path f)) acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* the library tree, found from where [fixture_dir] was: the tree tests
   must walk this repository's lib and nothing else, and fail without it *)
let lib_files () =
  let lib = if fixture_dir = "fixtures" then "../../lib" else "lib" in
  if not (Sys.file_exists lib && Sys.is_directory lib) then
    Alcotest.failf "library tree %s not found" lib;
  List.sort compare (collect_ml [] lib)

let parse ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

(* a closed world of inline sources, each file its own rule path *)
let world_of_sources sources =
  World.build
    (List.map (fun (file, src) -> (file, file, parse ~file src)) sources)

(* every R rule over a world of one inline source; [rule_path] is the path
   its directory-scoped rules test *)
let lint_string ?(file = "<string>") ?(rule_path = file) src =
  Interp.check_project (World.build [ (file, rule_path, parse ~file src) ])

(* the same over a world of one fixture *)
let findings ?rule_path file =
  let file = Filename.concat fixture_dir file in
  lint_string ~file ?rule_path (In_channel.with_open_bin file In_channel.input_all)

let count rule fs =
  List.length (List.filter (fun (f : Lint.finding) -> f.Lint.rule = rule) fs)

(* --- fixture checks: each rule must fire on its bad file and stay silent
   on its good twin --- *)

let test_r1_bad () =
  let fs = findings "bad_r1.ml" in
  check_int "R1 findings" 6 (count "R1" fs);
  check_int "only R1" 6 (List.length fs)

let test_r1_good () = check_int "clean" 0 (List.length (findings "good_r1.ml"))

let test_r2_bad () =
  let fs = findings "bad_r2.ml" in
  check_int "R2 findings" 3 (count "R2" fs);
  check_int "only R2" 3 (List.length fs)

let test_r2_good () = check_int "clean" 0 (List.length (findings "good_r2.ml"))

let test_r2_mem_exempt () =
  (* the same traffic is legal when the file lives under lib/mem *)
  let fs = findings ~rule_path:"lib/mem/hierarchy_helper.ml" "bad_r2.ml" in
  check_int "exempt under lib/mem" 0 (List.length fs)

let test_r4_bad () =
  let fs = findings "bad_r4.ml" in
  check_int "R4 findings" 4 (count "R4" fs);
  check_int "only R4" 4 (List.length fs)

let test_r4_good () = check_int "clean" 0 (List.length (findings "good_r4.ml"))

let test_file_suppression () =
  (* [@@@lint.allow "R1"] silences R1 for the file but not other rules *)
  let fs = findings "suppressed.ml" in
  check_int "R1 suppressed" 0 (count "R1" fs);
  check_int "R4 still fires" 1 (count "R4" fs)

let test_finding_format () =
  match findings "bad_r2.ml" with
  | f :: _ ->
    let s = Lint.finding_to_string f in
    let prefix = Filename.concat fixture_dir "bad_r2.ml" ^ ":" in
    Alcotest.(check bool)
      "file:line: [RULE] shape" true
      (String.length s > String.length prefix
      && String.sub s 0 (String.length prefix) = prefix
      && count "R2" [ f ] = 1)
  | [] -> Alcotest.fail "expected findings"

let test_check_string () =
  check_int "inline source" 1 (count "R1" (lint_string "let t = Sys.time ()"))

(* one [@lint.allow] scope for every R rule, whether the walk judges it at
   the node (R1) or over the call graph (R3): a site covers the rules it
   lists, and a file-level one the bindings after it *)
let test_shared_scope () =
  let rules src =
    List.map (fun (f : Lint.finding) -> f.Lint.rule) (lint_string src)
  in
  let binding allow =
    "type r = { mutable version : int }\n\
     let f (it : r) = ignore (Sys.time ()); it.version" ^ allow
  in
  let same = Alcotest.(check (list string)) in
  same "unsuppressed" [ "R1"; "R3" ] (rules (binding ""));
  same "R3 listed: R1 still fires" [ "R1" ]
    (rules (binding " [@@lint.allow \"R3\"]"));
  same "R1 and R3 listed" [] (rules (binding " [@@lint.allow \"R1 R3\"]"));
  same "all" [] (rules (binding " [@@lint.allow \"all\"]"));
  let w =
    world_of_sources
      [
        ( "<string>",
          "let before a b = a == b\n\
           [@@@lint.allow \"R4\"]\n\
           let after a b = ignore (Sys.time ()); a == b" );
      ]
  in
  Alcotest.(check (list string))
    "R4 before the file-level site, R1 after it"
    [ "<string>:1:19: [R4]"; "<string>:3:24: [R1]" ]
    (List.map
       (fun (f : Lint.finding) ->
         Printf.sprintf "%s:%d:%d: [%s]" f.Lint.file f.line f.col f.rule)
       (Interp.check_project w));
  match Lint.allow_sites w.World.registry with
  | [ s ] -> check_int "the site covers the later R4" 1 s.Lint.as_uses
  | _ -> Alcotest.fail "expected one [@lint.allow] site"

(* --- interprocedural pass (project mode) --- *)

(* a closed world of parsed files *)
let world_of_files files =
  World.build (List.map (fun f -> (f, f, Lint.parse_implementation f)) files)

let project sources = Interp.check_project (world_of_sources sources)

(* R3 is judged by the project pass alone; over a one-file world each
   function with no call site is an entry point *)
let r3_findings file =
  let path = Filename.concat fixture_dir file in
  project [ (path, In_channel.with_open_bin path In_channel.input_all) ]

let test_r3_bad () =
  let fs = r3_findings "bad_r3.ml" in
  check_int "R3 findings" 3 (count "R3" fs);
  check_int "only R3" 3 (List.length fs)

let test_r3_good () =
  check_int "clean" 0 (List.length (r3_findings "good_r3.ml"))

let test_r3_partial () =
  (* [poll env] supplies one of [poll]'s two parameters: it builds a
     closure and commits nothing, so the read after it is undominated;
     the full application [poll env 0] still commits *)
  let fs =
    project
      [
        ( "lib/a/partial.ml",
          "type r = { mutable version : int }\n\
           let poll env x = Env.commit env; x\n\
           let read_after_partial env (it : r) =\n\
          \  let p = poll env in ignore p; it.version\n\
           let read_after_full env (it : r) = ignore (poll env 0); it.version"
        );
      ]
  in
  check_int "read after a partial application flagged" 1 (count "R3" fs);
  check_int "only that read" 1 (List.length fs)

let test_interp_r3_proven () =
  (* an undominated read is fine when every call site is commit-dominated,
     even across files *)
  let fs =
    project
      [
        ( "lib/a/helper.ml",
          "type t = { mutable version : int }\nlet peek t = t.version" );
        ( "lib/a/caller.ml",
          "let use env t = Env.commit env; ignore (Helper.peek t)" );
      ]
  in
  check_int "proven clean" 0 (List.length fs)

let test_interp_r3_exposed () =
  (* one undominated call site from an entry point exposes the helper *)
  let fs =
    project
      [
        ( "lib/a/helper.ml",
          "type t = { mutable version : int }\nlet peek t = t.version" );
        ( "lib/a/caller.ml",
          "let use env t = Env.commit env; ignore (Helper.peek t)\n\
           let leak t = ignore (Helper.peek t)" );
      ]
  in
  check_int "exposed read flagged" 1 (count "R3" fs)

let test_interp_r3_closure_escape () =
  (* a helper that escapes as a closure can run anywhere: exposed *)
  let fs =
    project
      [
        ( "lib/a/helper.ml",
          "type t = { mutable version : int }\nlet peek t = t.version" );
        ( "lib/a/caller.ml", "let reg tbl = Hashtbl.replace tbl 0 Helper.peek" );
      ]
  in
  check_int "escaping read flagged" 1 (count "R3" fs)

let test_interp_r2_leak () =
  (* calling a helper whose raw Hierarchy access was locally suppressed
     leaks uncharged traffic to the caller *)
  let fs =
    project
      [
        ( "lib/store/raw.ml",
          "let touch hier =\n\
          \  (Hierarchy.load hier ~core:0 ~addr:0 ~size:8) [@lint.allow \
           \"R2\"]\n\
           let wrapper hier = touch hier" );
      ]
  in
  check_int "indirect leak flagged" 1 (count "R2" fs)

let test_interp_r2_env_sanctioned () =
  (* traffic through lib/mem's Env is the sanctioned path: no findings *)
  let fs =
    project
      [
        ( "lib/mem/env.ml",
          "let load t ~addr ~size = Hierarchy.load t.hier ~core:0 ~addr ~size"
        );
        ("lib/store/user.ml", "let fine env = Env.load env ~addr:0 ~size:8");
      ]
  in
  check_int "Env path clean" 0 (List.length fs)

(* --- zero-allocation certifier (rule family A) --- *)

let alloc_check files =
  Alloc.check_project
    (world_of_files (List.map (Filename.concat fixture_dir) files))

let test_alloc_closure_tuple () =
  let r = alloc_check [ "alloc_bad_closure.ml" ] in
  check_int "closure + tuple flagged" 2 (count "A1" r.Alloc.findings);
  check_int "only A1" 2 (List.length r.Alloc.findings)

let test_alloc_float_boxing () =
  let r = alloc_check [ "alloc_bad_float.ml" ] in
  check_int "float op + poly compare flagged" 2 (count "A2" r.Alloc.findings);
  check_int "only A2" 2 (List.length r.Alloc.findings)

let test_alloc_ref_in_loop () =
  let r = alloc_check [ "alloc_bad_ref.ml" ] in
  check_int "ref cell flagged" 1 (count "A1" r.Alloc.findings);
  check_int "Printf escape flagged" 1 (count "A3" r.Alloc.findings);
  check_int "nothing else" 2 (List.length r.Alloc.findings)

let test_alloc_allow_accounting () =
  (* the growth-branch allow absorbs its finding; the second attribute
     covers nothing and must read as stale (as_uses = 0) *)
  let r = alloc_check [ "alloc_allow.ml" ] in
  check_int "suppressed clean" 0 (List.length r.Alloc.findings);
  check_int "both allow sites recorded" 2 (List.length r.Alloc.allow_sites);
  let used, stale =
    List.partition
      (fun (s : Lint.allow_site) -> s.Lint.as_uses > 0)
      r.Alloc.allow_sites
  in
  check_int "one live site" 1 (List.length used);
  check_int "one stale site" 1 (List.length stale)

let test_alloc_indirect () =
  (* the allocation lives in a callee; reachability must pull it into the
     hot set and attribute the finding to the [@hot] root *)
  let r = alloc_check [ "alloc_indirect.ml" ] in
  check_int "callee tuple flagged" 1 (count "A1" r.Alloc.findings);
  check_int "one [@hot] root" 1 (List.length r.Alloc.hot_roots);
  check_int "root + callee certified targets" 2 (List.length r.Alloc.hot_set);
  match r.Alloc.findings with
  | [ f ] ->
    Alcotest.(check bool)
      "provenance names the root" true
      (let msg = f.Lint.msg in
       let needle = "reachable from" in
       let n = String.length needle and m = String.length msg in
       let rec scan i = i + n <= m && (String.sub msg i n = needle || scan (i + 1)) in
       scan 0)
  | _ -> Alcotest.fail "expected exactly one finding"

let test_alloc_good () =
  (* tail-recursive helper, diverging invalid_arg, trace-guard Some branch:
     all exempt shapes, zero findings *)
  let r = alloc_check [ "alloc_good.ml" ] in
  check_int "clean" 0 (List.length r.Alloc.findings);
  check_int "two roots" 2 (List.length r.Alloc.hot_roots);
  check_int "helper reached" 3 (List.length r.Alloc.hot_set)

(* regression: the real annotated hot set (everything under lib/) must
   certify with zero findings and no stale suppressions *)
let test_alloc_hot_tree_certified () =
  let r = Alloc.check_project (world_of_files (lib_files ())) in
  List.iter
    (fun (f : Lint.finding) -> print_endline (Lint.finding_to_string f))
    r.Alloc.findings;
  check_int "annotated hot set certifies zero-alloc" 0
    (List.length r.Alloc.findings);
  Alcotest.(check bool)
    "all hot roots discovered" true
    (List.length r.Alloc.hot_roots >= 20);
  Alcotest.(check bool)
    "at most 3 [@alloc.allow] suppressions" true
    (List.length r.Alloc.allow_sites <= 3);
  List.iter
    (fun (s : Lint.allow_site) ->
      Alcotest.(check bool)
        (Printf.sprintf "allow at %s:%d is live" s.Lint.as_file
           s.Lint.as_line)
        true (s.Lint.as_uses > 0))
    r.Alloc.allow_sites

let test_syntax_error () =
  let path = Filename.temp_file "lint" ".ml" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "let let let");
  let parsed =
    match Lint.parse_implementation path with
    | _ -> true
    | exception Syntaxerr.Error _ -> false
  in
  Sys.remove path;
  Alcotest.(check bool) "a parse error" false parsed

(* --- domain-safety certifier (rule family D) --- *)

module Dom = Mutps_lint.Dom
module San = Mutps_san.San

let dom_check files =
  Dom.check_project
    (world_of_files (List.map (Filename.concat fixture_dir) files))

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec scan i = i + n <= m && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let global_status r key =
  match
    List.find_opt (fun (g : Dom.global) -> g.Dom.g_key = key) r.Dom.globals
  with
  | Some g -> g.Dom.g_status
  | None -> Alcotest.fail ("no global " ^ key)

let test_dom_racy_global () =
  let r = dom_check [ "dom_racy_global.ml" ] in
  check_int "every unprotected access flagged" 4
    (count "D1" r.Dom.findings);
  check_int "only D1" 4 (List.length r.Dom.findings);
  Alcotest.(check bool)
    "cache flagged" true
    (global_status r "Dom_racy_global.cache" = Dom.S_flagged);
  Alcotest.(check bool)
    "hits flagged" true
    (global_status r "Dom_racy_global.hits" = Dom.S_flagged)

let test_dom_dls_ok () =
  let r = dom_check [ "dom_dls_ok.ml" ] in
  check_int "clean" 0 (List.length r.Dom.findings);
  Alcotest.(check bool)
    "slot is a sync value" true
    (match global_status r "Dom_dls_ok.slot" with
    | Dom.S_sync _ -> true
    | _ -> false)

let test_dom_mutex_ok () =
  (* both the sequential lock/unlock shape and Fun.protect ~finally must
     certify; the unlock inside the finally closure is scoped and must
     not strip the lock from the protected body *)
  let r = dom_check [ "dom_mutex_ok.ml" ] in
  check_int "clean" 0 (List.length r.Dom.findings);
  Alcotest.(check bool)
    "table certified lock-protected" true
    (match global_status r "Dom_mutex_ok.table" with
    | Dom.S_locked l -> contains l "lock"
    | _ -> false)

let test_dom_spawn_escape () =
  let r = dom_check [ "dom_spawn_escape.ml" ] in
  Alcotest.(check bool)
    "unlocked spawn captures flagged" true
    (count "D2" r.Dom.findings > 0);
  check_int "only D2" (count "D2" r.Dom.findings)
    (List.length r.Dom.findings);
  (* every finding names the racy function, none the locked twin *)
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check bool) "names racy" true (contains f.Lint.msg ".racy"))
    r.Dom.findings

let test_dom_lock_cycle () =
  let r = dom_check [ "dom_lock_cycle.ml" ] in
  check_int "one deadlock cycle" 1 (count "D3" r.Dom.findings);
  check_int "only D3" 1 (List.length r.Dom.findings);
  Alcotest.(check (list (list string)))
    "a <-> b cycle"
    [ [ "Dom_lock_cycle.a"; "Dom_lock_cycle.b" ] ]
    (Dom.Lockgraph.cycles r.Dom.graph);
  check_int "both orders recorded as edges" 2
    (List.length (Dom.Lockgraph.edges r.Dom.graph))

let test_dom_effect_cross () =
  let r = dom_check [ "dom_effect_cross.ml" ] in
  check_int "direct + indirect cross-domain performs" 2
    (count "D4" r.Dom.findings);
  check_int "handled twin clean" 2 (List.length r.Dom.findings)

let test_dom_allow_accounting () =
  let r = dom_check [ "dom_allow.ml" ] in
  check_int "suppressed clean" 0 (List.length r.Dom.findings);
  check_int "one finding absorbed" 1 r.Dom.suppressed;
  check_int "both allow sites recorded" 2 (List.length r.Dom.allow_sites);
  let used, stale =
    List.partition
      (fun (s : Lint.allow_site) -> s.Lint.as_uses > 0)
      r.Dom.allow_sites
  in
  check_int "one live site" 1 (List.length used);
  check_int "one stale site" 1 (List.length stale)

(* QCheck law: Lockgraph's cycle detection (a node on a cycle reaches
   itself through World.reach) agrees with a Kahn's-algorithm reference
   (repeatedly strip zero-in-degree nodes; anything left is cyclic) on
   random edge lists over a small node universe — self-loops and dense
   graphs included. *)
let lockgraph_cycle_law =
  QCheck.Test.make ~name:"Lockgraph.cycles agrees with Kahn reference"
    ~count:500
    QCheck.(list (pair (int_bound 7) (int_bound 7)))
    (fun raw ->
      let g = Dom.Lockgraph.create () in
      List.iter
        (fun (a, b) ->
          Dom.Lockgraph.add_edge g ~src:(string_of_int a)
            ~dst:(string_of_int b) ~file:"t" ~line:1)
        raw;
      let reach_cyclic = Dom.Lockgraph.cycles g <> [] in
      let nodes = Dom.Lockgraph.nodes g in
      let edges =
        List.sort_uniq compare
          (List.map (fun (a, b) -> (string_of_int a, string_of_int b)) raw)
      in
      let alive = Hashtbl.create 16 in
      List.iter (fun n -> Hashtbl.replace alive n ()) nodes;
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun n ->
            if
              Hashtbl.mem alive n
              && not
                   (List.exists
                      (fun (s, d) -> d = n && Hashtbl.mem alive s)
                      edges)
            then begin
              Hashtbl.remove alive n;
              changed := true
            end)
          nodes
      done;
      let kahn_cyclic = Hashtbl.length alive > 0 in
      reach_cyclic = kahn_cyclic)

(* cross-check against the runtime race sanitizer: every race site the
   sanitizer reports on the deliberately racy module must be covered by
   a static D1/D2 finding naming the same function — the static
   certifier over-approximates the dynamic detector, never the other
   way round.  The module's Env.tagged site names are its own function
   keys, so coverage is a substring check on the finding messages. *)
let test_dom_san_subset () =
  let src =
    List.find_opt Sys.file_exists
      [ "dom_racy_runtime.ml"; "test/lint/dom_racy_runtime.ml" ]
  in
  match src with
  | None -> ()
  | Some src ->
    let reports = Dom_racy_runtime.run () in
    Alcotest.(check bool)
      "sanitizer sees the race" true
      (List.length reports >= 1);
    let r = Dom.check_project (world_of_files [ src ]) in
    let msgs = List.map (fun (f : Lint.finding) -> f.Lint.msg) r.Dom.findings in
    Alcotest.(check bool)
      "static pass flags the module" true
      (msgs <> []);
    let sites =
      List.concat_map
        (fun (rep : San.report) ->
          (rep.San.second.San.a_site
          :: (match rep.San.first with Some a -> [ a.San.a_site ] | None -> []))
          )
        reports
      |> List.filter (fun s -> s <> "?")
      |> List.sort_uniq compare
    in
    Alcotest.(check bool) "reports carry sites" true (sites <> []);
    List.iter
      (fun site ->
        Alcotest.(check bool)
          (site ^ " covered by a static finding")
          true
          (List.exists (fun m -> contains m site) msgs))
      sites

(* regression twin of [test_alloc_hot_tree_certified]: the real library
   tree must certify domain-safe — zero unsuppressed findings, an
   acyclic lock-order graph, every [@dom.allow] live, at most 5 of
   them. *)
let test_dom_tree_certified () =
  let r = Dom.check_project (world_of_files (lib_files ())) in
  List.iter
    (fun (f : Lint.finding) -> print_endline (Lint.finding_to_string f))
    r.Dom.findings;
  check_int "library tree certifies domain-safe" 0
    (List.length r.Dom.findings);
  Alcotest.(check (list (list string)))
    "lock-order graph acyclic" []
    (Dom.Lockgraph.cycles r.Dom.graph);
  (* every lock in the library, by the name the D graph keys it by: a new
     one has to be added here on purpose *)
  Alcotest.(check (list string))
    "lock inventory"
    [
      "<.err_lock>";
      "<.inj_lock>";
      "<.lock>";
      "<.rx_lock>";
      "Runner.run_all/lock";
      "San.sanitized/lock";
      "Trace.traced/lock";
      "Zipf.zeta_lock";
    ]
    (Dom.Lockgraph.nodes r.Dom.graph);
  Alcotest.(check bool)
    "module-level mutable state is inventoried" true
    (List.length r.Dom.globals >= 8);
  Alcotest.(check bool)
    "no flagged globals" true
    (List.for_all
       (fun (g : Dom.global) -> g.Dom.g_status <> Dom.S_flagged)
       r.Dom.globals);
  Alcotest.(check bool)
    "at most 5 [@dom.allow] suppressions" true
    (List.length r.Dom.allow_sites <= 5);
  List.iter
    (fun (s : Lint.allow_site) ->
      Alcotest.(check bool)
        (Printf.sprintf "allow at %s:%d is live" s.Lint.as_file
           s.Lint.as_line)
        true (s.Lint.as_uses > 0))
    r.Dom.allow_sites

(* --- the shared closed world --- *)

(* one resolution policy: qualified keys, alias / fully-qualified
   spellings by unique dotted suffix, unqualified names as the last
   binding of that name in the caller's file, and a key two files define
   resolves nowhere *)
let test_world_resolve () =
  let w =
    world_of_sources
      [
        ( "lib/x/alpha.ml",
          "let f () = ()\n\
           module Sub = struct let g () = () end\n\
           let g () = ()" );
        ("lib/y/m.ml", "let h () = ()");
        ("lib/z/m.ml", "let h () = ()");
      ]
  in
  let key file p =
    match World.resolve w ~file p with Some b -> b.World.key | None -> "-"
  in
  check_string "qualified" "Alpha.f" (key "lib/y/m.ml" "Alpha.f");
  check_string "alias spelling" "Alpha.Sub.g"
    (key "lib/y/m.ml" "Mutps_x.Alpha.Sub.g");
  check_string "unqualified: last binding of the file" "Alpha.g"
    (key "lib/x/alpha.ml" "g");
  check_string "ambiguous key" "-" (key "lib/x/alpha.ml" "M.h");
  check_string "unqualified in its own file" "M.h" (key "lib/z/m.ml" "h")

(* the worklist is FIFO from the seeds: the first label to arrive wins *)
let test_world_reach () =
  let label =
    World.reach
      [ ("a", "b"); ("b", "c"); ("x", "c"); ("c", "a"); ("y", "a") ]
      [ ("a", 1); ("x", 2) ]
  in
  let get k = Option.value (Hashtbl.find_opt label k) ~default:0 in
  check_int "seed a" 1 (get "a");
  check_int "b from a" 1 (get "b");
  check_int "c from x, one hop earlier than from b" 2 (get "c");
  check_int "y is not reached" 0 (get "y");
  check_int "a, b, c and x" 4 (Hashtbl.length label)

(* directory-scoped rules match whole path components: a file under
   examples/mylib/mem/ or bench/notlib/mem/ is not under lib/mem, in the
   intra pass as in the interprocedural one *)
let test_lookalike_mem () =
  let raw = "let touch h = Hierarchy.load h ~core:0 ~addr:0 ~size:8" in
  List.iter
    (fun rule_path ->
      check_int (rule_path ^ ": intra R2") 1 (count "R2" (lint_string ~rule_path raw));
      (* a raw access sanctioned there leaks to its lib/ caller *)
      let fs =
        project
          [
            ( rule_path,
              "let touch h =\n\
              \  (Hierarchy.load h ~core:0 ~addr:0 ~size:8) [@lint.allow \
               \"R2\"]" );
            ("lib/store/user.ml", "let use h = X.touch h");
          ]
      in
      check_int (rule_path ^ ": interprocedural R2") 1 (count "R2" fs))
    [ "examples/mylib/mem/x.ml"; "bench/notlib/mem/x.ml" ];
  check_int "lib/mem keeps its exemption" 0
    (List.length (lint_string ~rule_path:"lib/mem/x.ml" raw))

(* the same component rule for R4's lib/sim exemption *)
let test_lookalike_sim () =
  let src = "let nap () = Simthread.yield ()" in
  let r4 rule_path = count "R4" (lint_string ~rule_path src) in
  check_int "examples/mylib/sim is not lib/sim" 1
    (r4 "examples/mylib/sim/x.ml");
  check_int "bench/notlib/sim is not lib/sim" 1 (r4 "bench/notlib/sim/x.ml");
  check_int "lib/sim keeps its exemption" 0 (r4 "lib/sim/x.ml")

(* two files define [M], so [M.f] is ambiguous: R, A and D apply one
   policy in either file order — it resolves nowhere — and the lock-order
   graph records no C.k -> M.l1 edge through it *)
let test_file_order () =
  let a =
    ( "lib/a/m.ml",
      "type t = { mutable version : int }\n\
       let l1 = Mutex.create ()\n\
       let f t = Mutex.lock l1; ignore t.version; Mutex.unlock l1" )
  and b = ("lib/b/m.ml", "let f _ = ()")
  and c =
    ( "lib/c/c.ml",
      "let k = Mutex.create ()\n\
       let[@hot] g env t =\n\
      \  Env.commit env; Mutex.lock k; M.f t; Mutex.unlock k" )
  in
  let run sources =
    let w = world_of_sources sources in
    let d = Dom.check_project w in
    let strs = List.map Lint.finding_to_string in
    ( strs (Interp.check_project w),
      strs (Alloc.check_project w).Alloc.findings,
      strs d.Dom.findings,
      List.map
        (fun (src, dst, _, _) -> src ^ " -> " ^ dst)
        (Dom.Lockgraph.edges d.Dom.graph) )
  in
  let r1, a1, d1, e1 = run [ a; b; c ] and r2, a2, d2, e2 = run [ b; a; c ] in
  let same = Alcotest.(check (list string)) in
  same "R agrees across orders" r1 r2;
  same "A agrees across orders" a1 a2;
  same "D agrees across orders" d1 d2;
  same "lock graph agrees across orders" e1 e2;
  Alcotest.(check bool) "no edge through the ambiguous M.f" false
    (List.mem "C.k -> M.l1" e1)

(* within one file a later definition shadows an earlier one, so a
   qualified [M.f] from another file is the last [f] of m.ml, and D3
   records the lock it takes *)
let test_world_shadowing () =
  let w =
    world_of_sources
      [
        ( "lib/m/m.ml",
          "let l1 = Mutex.create ()\n\
           let f () = ()\n\
           let f () = Mutex.lock l1; Mutex.unlock l1" );
        ( "lib/c/c.ml",
          "let k = Mutex.create ()\n\
           let g () = Mutex.lock k; M.f (); Mutex.unlock k" );
      ]
  in
  (match World.resolve w ~file:"lib/c/c.ml" "M.f" with
  | Some b ->
    check_int "last definition" 3 b.World.vb.pvb_loc.loc_start.pos_lnum
  | None -> Alcotest.fail "M.f unresolved");
  Alcotest.(check bool) "edge through the shadowing M.f" true
    (List.exists
       (fun (src, dst, _, _) -> src = "C.k" && dst = "M.l1")
       (Dom.Lockgraph.edges (Dom.check_project w).Dom.graph))

(* an unqualified name that a nested module's accessor shares still names
   the global: the unlocked write is flagged and the locks keep their
   module-level identity across functions *)
let test_dom_nested_accessor () =
  let r =
    Dom.check_project
      (world_of_sources
         [
           ( "lib/a/stats.ml",
             "let hits = ref 0\n\
              let a = Mutex.create ()\n\
              let b = Mutex.create ()\n\
              let record () = incr hits\n\
              let with_b () = Mutex.lock b; Mutex.unlock b\n\
              let outer () = Mutex.lock a; with_b (); Mutex.unlock a\n\
              module Snap = struct\n\
             \  let hits () = 0\n\
             \  let a () = 0\n\
             \  let b () = 0\n\
              end" );
         ])
  in
  check_int "unlocked write flagged" 1 (count "D1" r.Dom.findings);
  Alcotest.(check (list string))
    "module-level lock order" [ "Stats.a -> Stats.b" ]
    (List.map
       (fun (src, dst, _, _) -> src ^ " -> " ^ dst)
       (Dom.Lockgraph.edges r.Dom.graph))

(* an [@alloc.allow] covers only its binding or expression: a file-level
   one covers nothing and reads as stale *)
let test_alloc_file_allow_stale () =
  let r =
    Alloc.check_project
      (world_of_sources
         [
           ( "lib/q/q.ml",
             "[@@@alloc.allow \"cold\"]\nlet[@hot] pair x = (x, x)" );
         ])
  in
  check_int "not covered" 1 (count "A1" r.Alloc.findings);
  match r.Alloc.allow_sites with
  | [ s ] -> check_int "stale" 0 s.Lint.as_uses
  | _ -> Alcotest.fail "expected one [@alloc.allow] site"

(* --- determinism regression: a small fig2a-style config (uniform gets),
   run twice with the same seed under debug_checks, must agree to the last
   bit --- *)

let tiny_scale =
  {
    Harness.keyspace = 2_000;
    cores = 4;
    clients = 16;
    window = 2;
    warmup = 200_000;
    measure = 600_000;
    sample = None;
  }

let digest_of (m : Harness.measurement) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%.12g|%.12g|%.12g|%d|%.12g" m.Harness.mops
          m.Harness.p50_us m.Harness.p99_us m.Harness.completed
          m.Harness.cr_hit_rate))

let run_once system =
  let spec =
    Mutps_workload.Ycsb.get_only_uniform ~keyspace:tiny_scale.Harness.keyspace
      ~value_size:64 ()
  in
  let m =
    Harness.measure ~calibrate:false
      ~customize:(fun b -> Engine.set_debug_checks b.Harness.engine true)
      system tiny_scale spec
  in
  Alcotest.(check bool) "made progress" true (m.Harness.completed > 0);
  digest_of m

let test_determinism_basekv () =
  check_string "identical digests (BaseKV)" (run_once Harness.Basekv)
    (run_once Harness.Basekv)

let test_determinism_mutps () =
  check_string "identical digests (uTPS)" (run_once Harness.Mutps)
    (run_once Harness.Mutps)

(* the runtime verifier itself: an uncommitted shared-state read must trip
   Env.assert_committed when debug_checks is on, and pass silently off *)
let test_debug_checks_trip () =
  let engine = Engine.create () in
  Engine.set_debug_checks engine true;
  let hier =
    Mutps_mem.Hierarchy.create
      (Mutps_mem.Hierarchy.small_geometry ~cores:2)
  in
  let tripped = ref false in
  Mutps_sim.Simthread.spawn engine (fun ctx ->
      let env = Mutps_mem.Env.make ~ctx ~hier ~core:0 in
      Mutps_mem.Env.compute env 100;
      (* pending cycles not committed: the verifier must object *)
      match Mutps_mem.Env.assert_committed env "test-site" with
      | () -> ()
      | exception Failure _ -> tripped := true);
  Engine.run_all engine;
  Alcotest.(check bool) "uncommitted read detected" true !tripped;
  (* same read with checks off is silent *)
  let engine2 = Engine.create () in
  Mutps_sim.Simthread.spawn engine2 (fun ctx ->
      let env = Mutps_mem.Env.make ~ctx ~hier ~core:0 in
      Mutps_mem.Env.compute env 100;
      Mutps_mem.Env.assert_committed env "test-site");
  Engine.run_all engine2

let test_parked_accounting () =
  let engine = Engine.create () in
  Engine.set_debug_checks engine true;
  let cv = Mutps_sim.Simthread.Condvar.create () in
  Mutps_sim.Simthread.spawn engine (fun ctx ->
      Mutps_sim.Simthread.Condvar.wait ctx cv);
  Engine.run ~until:10 engine;
  check_int "one thread parked" 1 (Engine.parked engine);
  Mutps_sim.Simthread.Condvar.signal cv;
  Engine.run_all engine;
  check_int "resumed exactly once" 0 (Engine.parked engine)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 bad" `Quick test_r1_bad;
          Alcotest.test_case "R1 good" `Quick test_r1_good;
          Alcotest.test_case "R2 bad" `Quick test_r2_bad;
          Alcotest.test_case "R2 good" `Quick test_r2_good;
          Alcotest.test_case "R2 lib/mem exempt" `Quick test_r2_mem_exempt;
          Alcotest.test_case "R3 bad" `Quick test_r3_bad;
          Alcotest.test_case "R3 good" `Quick test_r3_good;
          Alcotest.test_case "R3 partial application" `Quick test_r3_partial;
          Alcotest.test_case "R4 bad" `Quick test_r4_bad;
          Alcotest.test_case "R4 good" `Quick test_r4_good;
          Alcotest.test_case "file suppression" `Quick test_file_suppression;
          Alcotest.test_case "finding format" `Quick test_finding_format;
          Alcotest.test_case "check_string" `Quick test_check_string;
          Alcotest.test_case "one [@lint.allow] scope" `Quick test_shared_scope;
          Alcotest.test_case "syntax error" `Quick test_syntax_error;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "dominated call sites proven" `Quick
            test_interp_r3_proven;
          Alcotest.test_case "exposed call site flagged" `Quick
            test_interp_r3_exposed;
          Alcotest.test_case "closure escape flagged" `Quick
            test_interp_r3_closure_escape;
          Alcotest.test_case "indirect R2 leak flagged" `Quick
            test_interp_r2_leak;
          Alcotest.test_case "Env path sanctioned" `Quick
            test_interp_r2_env_sanctioned;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "A1 closure + tuple" `Quick
            test_alloc_closure_tuple;
          Alcotest.test_case "A2 float boxing" `Quick test_alloc_float_boxing;
          Alcotest.test_case "A1 ref + A3 printf" `Quick test_alloc_ref_in_loop;
          Alcotest.test_case "[@alloc.allow] accounting" `Quick
            test_alloc_allow_accounting;
          Alcotest.test_case "indirect allocation via callee" `Quick
            test_alloc_indirect;
          Alcotest.test_case "exempt shapes clean" `Quick test_alloc_good;
          Alcotest.test_case "hot tree certifies" `Quick
            test_alloc_hot_tree_certified;
        ] );
      ( "dom",
        [
          Alcotest.test_case "D1 racy global" `Quick test_dom_racy_global;
          Alcotest.test_case "D1 DLS ok" `Quick test_dom_dls_ok;
          Alcotest.test_case "D1 mutex ok" `Quick test_dom_mutex_ok;
          Alcotest.test_case "D2 spawn escape" `Quick test_dom_spawn_escape;
          Alcotest.test_case "D3 lock cycle" `Quick test_dom_lock_cycle;
          Alcotest.test_case "D4 effect cross-domain" `Quick
            test_dom_effect_cross;
          Alcotest.test_case "[@dom.allow] accounting" `Quick
            test_dom_allow_accounting;
          QCheck_alcotest.to_alcotest lockgraph_cycle_law;
          Alcotest.test_case "san races subset of static" `Quick
            test_dom_san_subset;
          Alcotest.test_case "library tree certifies" `Quick
            test_dom_tree_certified;
        ] );
      ( "world",
        [
          Alcotest.test_case "resolution policy" `Quick test_world_resolve;
          Alcotest.test_case "reach labels FIFO" `Quick test_world_reach;
          Alcotest.test_case "look-alike lib/mem paths" `Quick
            test_lookalike_mem;
          Alcotest.test_case "look-alike lib/sim paths" `Quick
            test_lookalike_sim;
          Alcotest.test_case "resolution ignores file order" `Quick
            test_file_order;
          Alcotest.test_case "same-file shadowing" `Quick
            test_world_shadowing;
          Alcotest.test_case "D nested accessor" `Quick
            test_dom_nested_accessor;
          Alcotest.test_case "file-level [@alloc.allow] is stale" `Quick
            test_alloc_file_allow_stale;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "BaseKV digest" `Slow test_determinism_basekv;
          Alcotest.test_case "uTPS digest" `Slow test_determinism_mutps;
          Alcotest.test_case "debug_checks trips" `Quick test_debug_checks_trip;
          Alcotest.test_case "parked accounting" `Quick test_parked_accounting;
        ] );
    ]
