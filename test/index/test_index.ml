open Mutps_sim
open Mutps_mem
open Mutps_store
open Mutps_index

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run a single simulated thread over a fresh small machine; returns the
   total simulated cycles it took. *)
let run_sim f =
  let engine = Engine.create () in
  let hier = Hierarchy.create (Hierarchy.small_geometry ~cores:2) in
  Simthread.spawn engine (fun ctx ->
      f (Env.make ~ctx ~hier ~core:0);
      Simthread.commit ctx);
  Engine.run_all engine;
  Engine.now engine

let mk_world () =
  let layout = Layout.create () in
  let slab = Slab.create layout () in
  (layout, slab)

let value_of_key k = Bytes.of_string (Printf.sprintf "value-%Ld" k)

let mk_item slab k = Item.create slab ~value:(value_of_key k)

let mk_cuckoo ?(capacity = 4096) () =
  let layout, slab = mk_world () in
  (Cuckoo.ops (Cuckoo.create layout ~capacity ~seed:1), slab)

let mk_btree () =
  let layout, slab = mk_world () in
  let tree = Btree.create layout ~seed:1 in
  (Btree.ops tree, slab, tree)

let indexes () =
  let c, cs = mk_cuckoo () in
  let b, bs, _ = mk_btree () in
  [ (c, cs); (b, bs) ]

(* ------------------------------------------------------------------ *)
(* Shared behaviour over both indexes                                  *)
(* ------------------------------------------------------------------ *)

let test_insert_lookup () =
  List.iter
    (fun ((idx : Index_intf.t), slab) ->
      ignore
        (run_sim (fun env ->
             for k = 0 to 199 do
               idx.insert env (Int64.of_int k) (mk_item slab (Int64.of_int k))
             done;
             for k = 0 to 199 do
               match idx.lookup env (Int64.of_int k) with
               | Some item ->
                 Alcotest.(check string)
                   (idx.name ^ " value")
                   (Printf.sprintf "value-%d" k)
                   (Bytes.to_string (Item.peek item))
               | None -> Alcotest.failf "%s: key %d missing" idx.name k
             done;
             check_int (idx.name ^ " count") 200 (idx.count ())));
      ())
    (indexes ())

let test_lookup_missing () =
  List.iter
    (fun ((idx : Index_intf.t), slab) ->
      ignore
        (run_sim (fun env ->
             idx.insert env 5L (mk_item slab 5L);
             check_bool (idx.name ^ " miss") true (idx.lookup env 6L = None);
             check_bool (idx.name ^ " hit") true (idx.lookup env 5L <> None))))
    (indexes ())

let test_insert_replaces () =
  List.iter
    (fun ((idx : Index_intf.t), slab) ->
      ignore
        (run_sim (fun env ->
             idx.insert env 7L (mk_item slab 7L);
             let fresh = Item.create slab ~value:(Bytes.of_string "new") in
             idx.insert env 7L fresh;
             check_int (idx.name ^ " count stable") 1 (idx.count ());
             match idx.lookup env 7L with
             | Some item ->
               Alcotest.(check string)
                 (idx.name ^ " replaced") "new"
                 (Bytes.to_string (Item.peek item))
             | None -> Alcotest.fail "missing after replace")))
    (indexes ())

let test_remove () =
  List.iter
    (fun ((idx : Index_intf.t), slab) ->
      ignore
        (run_sim (fun env ->
             idx.insert env 1L (mk_item slab 1L);
             idx.insert env 2L (mk_item slab 2L);
             check_bool (idx.name ^ " removes") true (idx.remove env 1L);
             check_bool (idx.name ^ " gone") true (idx.lookup env 1L = None);
             check_bool (idx.name ^ " other stays") true (idx.lookup env 2L <> None);
             check_bool (idx.name ^ " remove missing") false (idx.remove env 1L);
             check_int (idx.name ^ " count") 1 (idx.count ()))))
    (indexes ())

let test_insert_silent_matches () =
  List.iter
    (fun ((idx : Index_intf.t), slab) ->
      for k = 0 to 99 do
        idx.insert_silent (Int64.of_int k) (mk_item slab (Int64.of_int k))
      done;
      check_int (idx.name ^ " silent count") 100 (idx.count ());
      ignore
        (run_sim (fun env ->
             for k = 0 to 99 do
               check_bool
                 (idx.name ^ " silent visible")
                 true
                 (idx.lookup env (Int64.of_int k) <> None)
             done)))
    (indexes ())

let test_batch_lookup_matches_pointwise () =
  List.iter
    (fun ((idx : Index_intf.t), slab) ->
      let keys = Array.init 64 (fun i -> Int64.of_int (i * 3)) in
      Array.iter (fun k -> idx.insert_silent k (mk_item slab k)) keys;
      let queries =
        Array.init 100 (fun i -> Int64.of_int i) (* mix of hits and misses *)
      in
      ignore
        (run_sim (fun env ->
             let batched = idx.batch_lookup env queries in
             Array.iteri
               (fun i q ->
                 let point = idx.lookup env q in
                 check_bool
                   (Printf.sprintf "%s batch[%d] agrees" idx.name i)
                   true
                   (Option.is_some batched.(i) = Option.is_some point))
               queries)))
    (indexes ())

let test_batch_lookup_cheaper_than_serial () =
  (* The point of batched indexing: overlapped misses.  Compare simulated
     cycles of batch vs pointwise lookups over a cold working set. *)
  List.iter
    (fun mk ->
      let (idx : Index_intf.t), slab = mk () in
      let n = 2048 in
      for k = 0 to n - 1 do
        idx.insert_silent (Int64.of_int k) (mk_item slab (Int64.of_int k))
      done;
      let probe = Array.init 32 (fun i -> Int64.of_int (i * 61 mod n)) in
      let serial =
        run_sim (fun env ->
            Array.iter (fun k -> ignore (idx.lookup env k)) probe)
      in
      let (idx2 : Index_intf.t), slab2 = mk () in
      for k = 0 to n - 1 do
        idx2.insert_silent (Int64.of_int k) (mk_item slab2 (Int64.of_int k))
      done;
      let batched = run_sim (fun env -> ignore (idx2.batch_lookup env probe)) in
      check_bool
        (Printf.sprintf "%s batch (%d) < serial (%d)" idx.name batched serial)
        true (batched < serial))
    [
      (fun () -> mk_cuckoo ~capacity:4096 ());
      (fun () ->
        let ops, slab, _ = mk_btree () in
        (ops, slab));
    ]


let test_batch_lookup_with_duplicates () =
  List.iter
    (fun ((idx : Index_intf.t), slab) ->
      idx.insert_silent 5L (mk_item slab 5L);
      ignore
        (run_sim (fun env ->
             let r = idx.batch_lookup env [| 5L; 5L; 6L; 5L |] in
             check_bool (idx.name ^ " dup hits") true
               (Option.is_some r.(0) && Option.is_some r.(1)
               && Option.is_some r.(3));
             check_bool (idx.name ^ " dup miss") true (r.(2) = None))))
    (indexes ())

let test_batch_lookup_empty () =
  List.iter
    (fun ((idx : Index_intf.t), _) ->
      ignore
        (run_sim (fun env ->
             check_int (idx.name ^ " empty batch") 0
               (Array.length (idx.batch_lookup env [||])))))
    (indexes ())

let test_btree_range_full_traversal () =
  (* a range spanning every leaf returns all entries in order *)
  let layout, slab = mk_world () in
  let tree = Btree.create layout ~seed:5 in
  let idx = Btree.ops tree in
  let n = 300 in
  for k = 0 to n - 1 do
    idx.insert_silent (Int64.of_int k) (mk_item slab (Int64.of_int k))
  done;
  ignore
    (run_sim (fun env ->
         let r = idx.range env ~lo:0L ~n in
         check_int "all entries" n (List.length r);
         let keys = List.map fst r in
         check_bool "identity order" true
           (keys = List.init n Int64.of_int)))

(* ------------------------------------------------------------------ *)
(* Cuckoo specifics                                                    *)
(* ------------------------------------------------------------------ *)

let test_cuckoo_high_load_factor () =
  let layout, slab = mk_world () in
  let t = Cuckoo.create layout ~capacity:4096 ~seed:3 in
  let idx = Cuckoo.ops t in
  (* fill to the nominal capacity: displacement must cope *)
  for k = 0 to 4095 do
    idx.insert_silent (Int64.of_int k) (mk_item slab (Int64.of_int k))
  done;
  check_int "all inserted" 4096 (idx.count ());
  ignore
    (run_sim (fun env ->
         for k = 0 to 4095 do
           if idx.lookup env (Int64.of_int k) = None then
             Alcotest.failf "key %d lost after displacements" k
         done))

let test_cuckoo_lookup_cost_shallow () =
  (* a hash lookup touches at most 2 buckets: simulated cost of a hot
     lookup must be tiny compared to a tree descent *)
  let (c : Index_intf.t), cs = mk_cuckoo () in
  let (b : Index_intf.t), bs, _ = mk_btree () in
  let n = 4000 in
  for k = 0 to n - 1 do
    c.insert_silent (Int64.of_int k) (mk_item cs (Int64.of_int k));
    b.insert_silent (Int64.of_int k) (mk_item bs (Int64.of_int k))
  done;
  let cost (idx : Index_intf.t) =
    run_sim (fun env ->
        for k = 0 to 499 do
          ignore (idx.lookup env (Int64.of_int (k * 7 mod n)))
        done)
  in
  let hash_cost = cost c and tree_cost = cost b in
  check_bool
    (Printf.sprintf "hash (%d) cheaper than tree (%d)" hash_cost tree_cost)
    true
    (hash_cost < tree_cost)

let test_cuckoo_range_rejected () =
  let (c : Index_intf.t), _ = mk_cuckoo () in
  ignore
    (run_sim (fun env ->
         Alcotest.check_raises "no range on hash"
           (Invalid_argument "Cuckoo: range queries require a tree index")
           (fun () -> ignore (c.range env ~lo:0L ~n:10))))

(* ------------------------------------------------------------------ *)
(* B+tree specifics                                                    *)
(* ------------------------------------------------------------------ *)

let test_btree_invariants_random () =
  let layout, slab = mk_world () in
  let tree = Btree.create layout ~seed:5 in
  let idx = Btree.ops tree in
  let r = Rng.create 99 in
  for _ = 0 to 4999 do
    let k = Int64.of_int (Rng.int r 100_000) in
    idx.insert_silent k (mk_item slab k)
  done;
  Btree.check_invariants tree;
  check_bool "depth grew" true (Btree.depth tree > 1)

let test_btree_range_sorted () =
  let layout, slab = mk_world () in
  let tree = Btree.create layout ~seed:5 in
  let idx = Btree.ops tree in
  (* even keys 0..1998 *)
  for k = 0 to 999 do
    idx.insert_silent (Int64.of_int (2 * k)) (mk_item slab (Int64.of_int (2 * k)))
  done;
  ignore
    (run_sim (fun env ->
         let result = idx.range env ~lo:101L ~n:50 in
         check_int "range size" 50 (List.length result);
         let keys = List.map fst result in
         (match keys with
         | first :: _ -> Alcotest.(check int64) "starts at 102" 102L first
         | [] -> Alcotest.fail "empty range");
         let rec sorted = function
           | a :: (b :: _ as rest) ->
             check_bool "ascending" true (Int64.compare a b < 0);
             sorted rest
           | _ -> ()
         in
         sorted keys))

let test_btree_range_at_end () =
  let layout, slab = mk_world () in
  let tree = Btree.create layout ~seed:5 in
  let idx = Btree.ops tree in
  for k = 0 to 9 do
    idx.insert_silent (Int64.of_int k) (mk_item slab (Int64.of_int k))
  done;
  ignore
    (run_sim (fun env ->
         check_int "clipped at end" 3 (List.length (idx.range env ~lo:7L ~n:50));
         check_int "past end empty" 0 (List.length (idx.range env ~lo:100L ~n:5))))

let test_btree_sequential_and_reverse () =
  List.iter
    (fun order ->
      let layout, slab = mk_world () in
      let tree = Btree.create layout ~seed:5 in
      let idx = Btree.ops tree in
      List.iter
        (fun k -> idx.insert_silent (Int64.of_int k) (mk_item slab (Int64.of_int k)))
        order;
      Btree.check_invariants tree;
      check_int "count" (List.length order) (idx.count ()))
    [
      List.init 500 Fun.id;
      List.rev (List.init 500 Fun.id);
    ]

let test_btree_remove_keeps_invariants () =
  let layout, slab = mk_world () in
  let tree = Btree.create layout ~seed:5 in
  let idx = Btree.ops tree in
  for k = 0 to 499 do
    idx.insert_silent (Int64.of_int k) (mk_item slab (Int64.of_int k))
  done;
  ignore
    (run_sim (fun env ->
         for k = 0 to 499 do
           if k mod 3 = 0 then
             check_bool "removed" true (idx.remove env (Int64.of_int k))
         done));
  Btree.check_invariants tree;
  ignore
    (run_sim (fun env ->
         check_bool "gone" true (idx.lookup env 3L = None);
         check_bool "kept" true (idx.lookup env 4L <> None)))

(* ------------------------------------------------------------------ *)
(* Model-based property test                                           *)
(* ------------------------------------------------------------------ *)

type op = Insert of int64 | Remove of int64 | Lookup of int64

(* Keys are mostly 0-100, so operations meet on the same keys.  The rest
   span the whole int64 range, both extremes and negatives included: a
   pool of 32 spread values that repeats, and fresh uniform draws.  Native
   RESP keys can be any int64, and the tree must order them as signed. *)
let key_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map Int64.of_int (int_bound 100));
        ( 1,
          oneofl
            [ Int64.min_int; Int64.succ Int64.min_int; -1L;
              Int64.pred Int64.max_int; Int64.max_int ] );
        (2, map (fun k -> Int64.mul (Int64.of_int k) 0x9E3779B97F4A7C15L) (int_bound 31));
        (1, int64);
      ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun k -> Insert k) key_gen);
        (2, map (fun k -> Remove k) key_gen);
        (3, map (fun k -> Lookup k) key_gen);
      ])

let op_print = function
  | Insert k -> Printf.sprintf "Insert %Ld" k
  | Remove k -> Printf.sprintf "Remove %Ld" k
  | Lookup k -> Printf.sprintf "Lookup %Ld" k

(* A tree index must also list every key in signed order from
   [Int64.min_int]. *)
let prop_index_matches_model mk name =
  QCheck.Test.make
    ~name:(name ^ " agrees with a model map")
    ~count:60
    (QCheck.make ~print:QCheck.Print.(list op_print) (QCheck.Gen.list_size (QCheck.Gen.int_range 1 200) op_gen))
    (fun ops ->
      let (idx : Index_intf.t), slab = mk () in
      let model = Hashtbl.create 64 in
      let ok = ref true in
      ignore
        (run_sim (fun env ->
             List.iter
               (fun op ->
                 match op with
                 | Insert key ->
                   idx.insert env key (mk_item slab key);
                   Hashtbl.replace model key ()
                 | Remove key ->
                   let was = idx.remove env key in
                   if was <> Hashtbl.mem model key then ok := false;
                   Hashtbl.remove model key
                 | Lookup key ->
                   let found = idx.lookup env key <> None in
                   if found <> Hashtbl.mem model key then ok := false)
               ops;
             if idx.kind = Index_intf.Tree then begin
               let sorted =
                 List.sort Int64.compare
                   (Hashtbl.fold (fun k () acc -> k :: acc) model [])
               in
               let listed =
                 List.map fst
                   (idx.range env ~lo:Int64.min_int ~n:(Hashtbl.length model + 1))
               in
               if listed <> sorted then ok := false
             end));
      !ok && idx.count () = Hashtbl.length model)

let prop_cuckoo_model =
  prop_index_matches_model (fun () -> mk_cuckoo ~capacity:1024 ()) "cuckoo"

let prop_btree_model =
  prop_index_matches_model
    (fun () ->
      let ops, slab, _ = mk_btree () in
      (ops, slab))
    "btree"

let prop_btree_invariants_hold =
  QCheck.Test.make ~name:"btree invariants after random workload" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 300) (int_bound 1000))
    (fun keys ->
      let layout, slab = mk_world () in
      let tree = Btree.create layout ~seed:5 in
      let idx = Btree.ops tree in
      List.iter
        (fun k -> idx.insert_silent (Int64.of_int k) (mk_item slab (Int64.of_int k)))
        keys;
      Btree.check_invariants tree;
      true)

let () =
  Alcotest.run "index"
    [
      ( "common",
        [
          Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "lookup missing" `Quick test_lookup_missing;
          Alcotest.test_case "insert replaces" `Quick test_insert_replaces;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "insert_silent" `Quick test_insert_silent_matches;
          Alcotest.test_case "batch matches pointwise" `Quick
            test_batch_lookup_matches_pointwise;
          Alcotest.test_case "batch cheaper" `Quick
            test_batch_lookup_cheaper_than_serial;
          Alcotest.test_case "batch duplicates" `Quick test_batch_lookup_with_duplicates;
          Alcotest.test_case "batch empty" `Quick test_batch_lookup_empty;
        ] );
      ( "cuckoo",
        [
          Alcotest.test_case "high load factor" `Quick test_cuckoo_high_load_factor;
          Alcotest.test_case "shallow lookups" `Quick test_cuckoo_lookup_cost_shallow;
          Alcotest.test_case "range rejected" `Quick test_cuckoo_range_rejected;
          QCheck_alcotest.to_alcotest prop_cuckoo_model;
        ] );
      ( "btree",
        [
          Alcotest.test_case "invariants random" `Quick test_btree_invariants_random;
          Alcotest.test_case "range sorted" `Quick test_btree_range_sorted;
          Alcotest.test_case "range at end" `Quick test_btree_range_at_end;
          Alcotest.test_case "seq and reverse" `Quick test_btree_sequential_and_reverse;
          Alcotest.test_case "remove invariants" `Quick test_btree_remove_keeps_invariants;
          Alcotest.test_case "range full traversal" `Quick test_btree_range_full_traversal;
          QCheck_alcotest.to_alcotest prop_btree_model;
          QCheck_alcotest.to_alcotest prop_btree_invariants_hold;
        ] );
    ]
