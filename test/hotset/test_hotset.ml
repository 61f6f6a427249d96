open Mutps_sim
open Mutps_mem
open Mutps_store
open Mutps_hotset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_env f =
  let engine = Engine.create () in
  let hier = Hierarchy.create (Hierarchy.small_geometry ~cores:2) in
  let result = ref None in
  Simthread.spawn engine (fun ctx ->
      result := Some (f (Env.make ~ctx ~hier ~core:0)));
  Engine.run_all engine;
  Option.get !result

let mk_world () =
  let layout = Layout.create () in
  (layout, Slab.create layout ())

let mk_item slab k = Item.create slab ~value:(Bytes.of_string (Printf.sprintf "v%Ld" k))

(* ------------------------------------------------------------------ *)
(* Cms                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cms_never_underestimates () =
  let cms = Cms.create ~width:1024 () in
  let truth = Hashtbl.create 64 in
  let r = Rng.create 1 in
  for _ = 1 to 5000 do
    let k = Int64.of_int (Rng.int r 200) in
    Cms.add cms k;
    Hashtbl.replace truth k (1 + Option.value ~default:0 (Hashtbl.find_opt truth k))
  done;
  Hashtbl.iter
    (fun k true_count ->
      check_bool "estimate >= truth" true (Cms.estimate cms k >= true_count))
    truth;
  check_int "total" 5000 (Cms.total cms)

let test_cms_accuracy_on_heavy_hitters () =
  let cms = Cms.create ~width:4096 () in
  for _ = 1 to 1000 do
    Cms.add cms 7L
  done;
  for i = 0 to 999 do
    Cms.add cms (Int64.of_int (100 + i))
  done;
  let est = Cms.estimate cms 7L in
  check_bool "heavy hitter close" true (est >= 1000 && est < 1100)

let test_cms_clear () =
  let cms = Cms.create ~width:64 () in
  Cms.add cms 1L;
  Cms.clear cms;
  check_int "cleared estimate" 0 (Cms.estimate cms 1L);
  check_int "cleared total" 0 (Cms.total cms)

let test_cms_unknown_key_bounded () =
  let cms = Cms.create ~width:4096 () in
  for i = 0 to 99 do
    Cms.add cms (Int64.of_int i)
  done;
  check_bool "unseen key small estimate" true (Cms.estimate cms 999999L <= 2)

(* ------------------------------------------------------------------ *)
(* Topk                                                                *)
(* ------------------------------------------------------------------ *)

let test_topk_keeps_hottest () =
  let t = Topk.create ~k:3 in
  List.iter (fun (k, c) -> Topk.offer t k c)
    [ (1L, 10); (2L, 50); (3L, 5); (4L, 100); (5L, 7); (6L, 60) ];
  let keys = Array.map fst (Topk.contents t) in
  Alcotest.(check (array int64)) "hottest three, descending" [| 4L; 6L; 2L |] keys

let test_topk_update_existing () =
  let t = Topk.create ~k:2 in
  Topk.offer t 1L 5;
  Topk.offer t 2L 10;
  Topk.offer t 1L 50;
  let keys = Array.map fst (Topk.contents t) in
  Alcotest.(check (array int64)) "updated order" [| 1L; 2L |] keys;
  check_int "min count" 10 (Topk.min_count t)

let test_topk_rejects_cold () =
  let t = Topk.create ~k:2 in
  Topk.offer t 1L 100;
  Topk.offer t 2L 200;
  Topk.offer t 3L 50;
  check_int "still 2" 2 (Topk.size t);
  check_bool "cold key rejected" true
    (Array.for_all (fun (k, _) -> k <> 3L) (Topk.contents t))

let prop_topk_matches_sort =
  QCheck.Test.make ~name:"topk = top of full sort" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (pair (int_bound 1000) (int_range 1 1000)))
    (fun pairs ->
      (* dedupe keys, keeping max count, as Topk.offer does *)
      let tbl = Hashtbl.create 32 in
      List.iter
        (fun (k, c) ->
          let k = Int64.of_int k in
          match Hashtbl.find_opt tbl k with
          | Some c' when c' >= c -> ()
          | _ -> Hashtbl.replace tbl k c)
        pairs;
      let t = Topk.create ~k:5 in
      List.iter (fun (k, c) -> Topk.offer t (Int64.of_int k) c) pairs;
      let got = Topk.contents t in
      let expect =
        Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      let expect_top =
        List.filteri (fun i _ -> i < 5) expect |> List.map snd
      in
      let got_counts = Array.to_list (Array.map snd got) in
      (* counts must match the true top-5 multiset *)
      List.sort compare got_counts = List.sort compare expect_top)

(* ------------------------------------------------------------------ *)
(* Tracker                                                             *)
(* ------------------------------------------------------------------ *)

let test_tracker_finds_hotspot () =
  let t = Tracker.create ~sample_every:4 in
  let r = Rng.create 5 in
  (* key 42 gets ~50% of traffic; rest uniform over 1000 *)
  for _ = 1 to 40_000 do
    if Rng.bool r then Tracker.record t 42L
    else Tracker.record t (Int64.of_int (Rng.int r 1000))
  done;
  let top = Tracker.rebuild t ~k:10 in
  check_bool "hotspot ranked first" true (fst top.(0) = 42L);
  check_int "samples reset" 0 (Tracker.samples_pending t)

let test_tracker_sampling_rate () =
  let t = Tracker.create ~sample_every:10 in
  for _ = 1 to 1000 do
    Tracker.record t 1L
  done;
  check_int "one in ten sampled" 100 (Tracker.samples_pending t)

let test_tracker_rebuild_resets () =
  let t = Tracker.create ~sample_every:1 in
  Tracker.record t 9L;
  ignore (Tracker.rebuild t ~k:5);
  let top = Tracker.rebuild t ~k:5 in
  check_int "empty after reset" 0 (Array.length top)

(* ------------------------------------------------------------------ *)
(* Hotcache                                                            *)
(* ------------------------------------------------------------------ *)

let entries slab ks = Array.map (fun k -> (k, mk_item slab k)) ks

let test_hotcache_find_both_modes () =
  List.iter
    (fun mode ->
      let _, slab = mk_world () in
      let layout2 = Layout.create () in
      let hc = Hotcache.create layout2 ~mode ~max_items:64 in
      Hotcache.publish hc (entries slab [| 5L; 1L; 9L; 3L |]);
      check_int "size" 4 (Hotcache.size hc);
      with_env (fun env ->
          Array.iter
            (fun k ->
              match Hotcache.find hc env k with
              | Some item ->
                Alcotest.(check string)
                  "value" (Printf.sprintf "v%Ld" k)
                  (Bytes.to_string (Item.peek item))
              | None -> Alcotest.failf "key %Ld missing" k)
            [| 1L; 3L; 5L; 9L |];
          check_bool "miss" true (Hotcache.find hc env 7L = None)))
    [ Hotcache.Sorted; Hotcache.Probed ]

let test_hotcache_epoch_switch () =
  let _, slab = mk_world () in
  let layout2 = Layout.create () in
  let hc = Hotcache.create layout2 ~mode:Hotcache.Sorted ~max_items:16 in
  check_int "epoch 0" 0 (Hotcache.epoch hc);
  Hotcache.publish hc (entries slab [| 1L |]);
  check_int "epoch 1" 1 (Hotcache.epoch hc);
  Hotcache.publish hc (entries slab [| 2L |]);
  check_int "epoch 2" 2 (Hotcache.epoch hc);
  check_bool "old key gone" false (Hotcache.mem_silent hc 1L);
  check_bool "new key present" true (Hotcache.mem_silent hc 2L)

let test_hotcache_duplicates_dropped () =
  let _, slab = mk_world () in
  List.iter
    (fun mode ->
      let layout2 = Layout.create () in
      let hc = Hotcache.create layout2 ~mode ~max_items:16 in
      Hotcache.publish hc (entries slab [| 4L; 4L; 4L; 2L |]);
      check_int "dups dropped" 2 (Hotcache.size hc))
    [ Hotcache.Sorted; Hotcache.Probed ]

let test_hotcache_overflow_rejected () =
  let _, slab = mk_world () in
  let layout2 = Layout.create () in
  let hc = Hotcache.create layout2 ~mode:Hotcache.Sorted ~max_items:2 in
  Alcotest.check_raises "too many"
    (Invalid_argument "Hotcache.publish: more entries than max_items")
    (fun () -> Hotcache.publish hc (entries slab [| 1L; 2L; 3L |]))

let test_hotcache_cached_range () =
  let _, slab = mk_world () in
  let layout2 = Layout.create () in
  let hc = Hotcache.create layout2 ~mode:Hotcache.Sorted ~max_items:16 in
  Hotcache.publish hc (entries slab [| 10L; 2L; 30L; 4L; 20L |]);
  with_env (fun env ->
      let r = Hotcache.cached_range hc env ~lo:4L ~n:3 in
      Alcotest.(check (list int64)) "range keys" [ 4L; 10L; 20L ]
        (List.map fst r);
      let none = Hotcache.cached_range hc env ~lo:31L ~n:3 in
      check_int "empty past end" 0 (List.length none))

let test_hotcache_range_rejected_probed () =
  let layout2 = Layout.create () in
  let hc = Hotcache.create layout2 ~mode:Hotcache.Probed ~max_items:16 in
  with_env (fun env ->
      Alcotest.check_raises "probed range"
        (Invalid_argument "Hotcache.cached_range: requires Sorted mode")
        (fun () -> ignore (Hotcache.cached_range hc env ~lo:0L ~n:1)))

let test_hotcache_probed_cheaper_than_sorted () =
  (* On the full-size machine (everything LLC-resident) the O(1) probe must
     beat the O(log n) binary search on point lookups. *)
  let _, slab = mk_world () in
  let keys = Array.init 8192 (fun i -> Int64.of_int (i * 7)) in
  let cost mode =
    let layout2 = Layout.create () in
    let hc = Hotcache.create layout2 ~mode ~max_items:8192 in
    Hotcache.publish hc (entries slab keys);
    let engine = Engine.create () in
    let hier = Hierarchy.create (Hierarchy.default_geometry ~cores:1) in
    let warm_end = ref 0 in
    Simthread.spawn engine (fun ctx ->
        let env = Env.make ~ctx ~hier ~core:0 in
        (* warm pass: fault the structure in *)
        Array.iter (fun k -> ignore (Hotcache.find hc env k)) keys;
        Simthread.commit ctx;
        warm_end := Simthread.now ctx;
        (* measured pass: steady-state cache-resident cost *)
        Array.iter (fun k -> ignore (Hotcache.find hc env k)) keys;
        Simthread.commit ctx);
    Engine.run_all engine;
    Engine.now engine - !warm_end
  in
  let sorted = cost Hotcache.Sorted and probed = cost Hotcache.Probed in
  check_bool
    (Printf.sprintf "probed (%d) < sorted (%d)" probed sorted)
    true (probed < sorted)

let prop_hotcache_find_matches_publish =
  QCheck.Test.make ~name:"hotcache finds exactly the published keys" ~count:60
    QCheck.(pair bool (list_of_size (Gen.int_range 0 50) (int_bound 200)))
    (fun (sorted_mode, ks) ->
      let _, slab = mk_world () in
      let layout2 = Layout.create () in
      let mode = if sorted_mode then Hotcache.Sorted else Hotcache.Probed in
      let hc = Hotcache.create layout2 ~mode ~max_items:64 in
      let keys = Array.of_list (List.map Int64.of_int ks) in
      Hotcache.publish hc (entries slab keys);
      let published = List.sort_uniq compare (Array.to_list keys) in
      with_env (fun env ->
          List.for_all (fun k -> Hotcache.find hc env k <> None) published
          && List.for_all
               (fun k ->
                 List.mem k published || Hotcache.find hc env k = None)
               (List.map Int64.of_int [ 0; 1; 50; 199; 1000 ])))


let test_tracker_adapts_to_shift () =
  (* hotspot moves: after one rebuild cycle the new top key must lead *)
  let t = Tracker.create ~sample_every:2 in
  let r = Rng.create 21 in
  for _ = 1 to 30_000 do
    if Rng.bool r then Tracker.record t 100L
    else Tracker.record t (Int64.of_int (Rng.int r 5000))
  done;
  let top1 = Tracker.rebuild t ~k:8 in
  Alcotest.(check int64) "first hotspot" 100L (fst top1.(0));
  (* shift: key 200 becomes hot *)
  for _ = 1 to 30_000 do
    if Rng.bool r then Tracker.record t 200L
    else Tracker.record t (Int64.of_int (Rng.int r 5000))
  done;
  let top2 = Tracker.rebuild t ~k:8 in
  Alcotest.(check int64) "shifted hotspot" 200L (fst top2.(0));
  check_bool "old hotspot faded from the lead" true (fst top2.(0) <> 100L)

let test_hotcache_publish_empty () =
  let layout2 = Layout.create () in
  let hc = Hotcache.create layout2 ~mode:Hotcache.Sorted ~max_items:8 in
  Hotcache.publish hc [||];
  check_int "empty size" 0 (Hotcache.size hc);
  with_env (fun env -> check_bool "find on empty" true (Hotcache.find hc env 1L = None))

let prop_cached_range_sorted_and_bounded =
  QCheck.Test.make ~name:"cached_range returns sorted keys >= lo" ~count:60
    QCheck.(pair (list_of_size (Gen.int_range 0 40) (int_bound 500)) (int_bound 500))
    (fun (ks, lo) ->
      let _, slab = mk_world () in
      let layout2 = Layout.create () in
      let hc = Hotcache.create layout2 ~mode:Hotcache.Sorted ~max_items:64 in
      Hotcache.publish hc (entries slab (Array.of_list (List.map Int64.of_int ks)));
      with_env (fun env ->
          let r = Hotcache.cached_range hc env ~lo:(Int64.of_int lo) ~n:10 in
          let keys = List.map fst r in
          let sorted = List.sort compare keys = keys in
          let bounded = List.for_all (fun k -> k >= Int64.of_int lo) keys in
          sorted && bounded && List.length keys <= 10))

let () =
  Alcotest.run "hotset"
    [
      ( "cms",
        [
          Alcotest.test_case "never underestimates" `Quick test_cms_never_underestimates;
          Alcotest.test_case "heavy hitters" `Quick test_cms_accuracy_on_heavy_hitters;
          Alcotest.test_case "clear" `Quick test_cms_clear;
          Alcotest.test_case "unknown bounded" `Quick test_cms_unknown_key_bounded;
        ] );
      ( "topk",
        [
          Alcotest.test_case "keeps hottest" `Quick test_topk_keeps_hottest;
          Alcotest.test_case "update existing" `Quick test_topk_update_existing;
          Alcotest.test_case "rejects cold" `Quick test_topk_rejects_cold;
          QCheck_alcotest.to_alcotest prop_topk_matches_sort;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "finds hotspot" `Quick test_tracker_finds_hotspot;
          Alcotest.test_case "sampling rate" `Quick test_tracker_sampling_rate;
          Alcotest.test_case "rebuild resets" `Quick test_tracker_rebuild_resets;
          Alcotest.test_case "adapts to shift" `Quick test_tracker_adapts_to_shift;
        ] );
      ( "hotcache",
        [
          Alcotest.test_case "find both modes" `Quick test_hotcache_find_both_modes;
          Alcotest.test_case "epoch switch" `Quick test_hotcache_epoch_switch;
          Alcotest.test_case "duplicates" `Quick test_hotcache_duplicates_dropped;
          Alcotest.test_case "overflow" `Quick test_hotcache_overflow_rejected;
          Alcotest.test_case "cached range" `Quick test_hotcache_cached_range;
          Alcotest.test_case "range rejected probed" `Quick test_hotcache_range_rejected_probed;
          Alcotest.test_case "probed cheaper" `Quick test_hotcache_probed_cheaper_than_sorted;
          Alcotest.test_case "publish empty" `Quick test_hotcache_publish_empty;
          QCheck_alcotest.to_alcotest prop_hotcache_find_matches_publish;
          QCheck_alcotest.to_alcotest prop_cached_range_sorted_and_bounded;
        ] );
    ]
