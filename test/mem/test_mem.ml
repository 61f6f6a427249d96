open Mutps_mem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let test_layout_lines () =
  check_int "line of 0" 0 (Layout.line_of_addr 0);
  check_int "line of 63" 0 (Layout.line_of_addr 63);
  check_int "line of 64" 1 (Layout.line_of_addr 64);
  check_int "one byte spans one line" 1 (Layout.lines_spanned ~addr:0 ~size:1);
  check_int "zero size probes one line" 1 (Layout.lines_spanned ~addr:10 ~size:0);
  check_int "64B aligned spans one" 1 (Layout.lines_spanned ~addr:64 ~size:64);
  check_int "64B misaligned spans two" 2 (Layout.lines_spanned ~addr:60 ~size:64);
  check_int "1KB spans 16" 16 (Layout.lines_spanned ~addr:0 ~size:1024)

let test_layout_regions_disjoint () =
  let l = Layout.create () in
  let a = Layout.region l ~name:"a" ~size:1000 in
  let b = Layout.region l ~name:"b" ~size:1000 in
  check_bool "disjoint" true
    (Layout.base b >= Layout.base a + Layout.size a
    || Layout.base a >= Layout.base b + Layout.size b);
  check_bool "a contains own base" true (Layout.contains a (Layout.base a));
  check_bool "a excludes b's base" false (Layout.contains a (Layout.base b))

let test_layout_alloc () =
  let l = Layout.create () in
  let r = Layout.region l ~name:"r" ~size:256 in
  let x = Layout.alloc r 10 in
  let y = Layout.alloc r 10 in
  check_int "first at base" (Layout.base r) x;
  check_bool "second after first (aligned)" true (y >= x + 10);
  check_int "aligned to 8" 0 (y mod 8);
  let z = Layout.alloc r ~align:64 1 in
  check_int "aligned to 64" 0 (z mod 64);
  Alcotest.check_raises "overflow rejected"
    (Failure "Layout.alloc: region \"r\" full (65 of 256 bytes used)")
    (fun () -> ignore (Layout.alloc r 200))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let full c = Cache.full_mask c

let test_cache_hit_after_fill () =
  let c = Cache.create ~name:"c" ~sets:4 ~ways:2 in
  (match Cache.access c ~line:42 ~way_mask:(full c) with
  | Cache.Miss { victim = None } -> ()
  | _ -> Alcotest.fail "expected cold miss");
  (match Cache.access c ~line:42 ~way_mask:(full c) with
  | Cache.Hit -> ()
  | _ -> Alcotest.fail "expected hit");
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  let c = Cache.create ~name:"c" ~sets:1 ~ways:2 in
  ignore (Cache.access c ~line:1 ~way_mask:(full c));
  ignore (Cache.access c ~line:2 ~way_mask:(full c));
  (* touch 1 so 2 becomes LRU *)
  ignore (Cache.access c ~line:1 ~way_mask:(full c));
  (match Cache.access c ~line:3 ~way_mask:(full c) with
  | Cache.Miss { victim = Some v } -> check_int "evicts LRU" 2 v
  | _ -> Alcotest.fail "expected eviction");
  check_bool "1 still present" true (Cache.probe c ~line:1);
  check_bool "2 gone" false (Cache.probe c ~line:2)

let test_cache_way_mask_allocation () =
  let c = Cache.create ~name:"c" ~sets:1 ~ways:4 in
  (* fill the two rightmost ways only *)
  ignore (Cache.access c ~line:1 ~way_mask:0b0011);
  ignore (Cache.access c ~line:2 ~way_mask:0b0011);
  ignore (Cache.access c ~line:3 ~way_mask:0b0011);
  (* line 1 was LRU within the restricted ways -> must have been evicted *)
  check_bool "line1 evicted from restricted ways" false (Cache.probe c ~line:1);
  check_bool "line2 present" true (Cache.probe c ~line:2);
  check_bool "line3 present" true (Cache.probe c ~line:3);
  (* an allocation with the complementary mask must not disturb them *)
  ignore (Cache.access c ~line:4 ~way_mask:0b1100);
  check_bool "line2 survives other-mask fill" true (Cache.probe c ~line:2);
  check_bool "line3 survives other-mask fill" true (Cache.probe c ~line:3)

let test_cache_hit_across_masks () =
  let c = Cache.create ~name:"c" ~sets:1 ~ways:4 in
  ignore (Cache.access c ~line:7 ~way_mask:0b1100);
  (* CAT semantics: lookups hit on any way regardless of the mask *)
  (match Cache.access c ~line:7 ~way_mask:0b0011 with
  | Cache.Hit -> ()
  | _ -> Alcotest.fail "mask must not hide hits")

let test_cache_empty_mask_bypasses () =
  let c = Cache.create ~name:"c" ~sets:1 ~ways:2 in
  (match Cache.access c ~line:9 ~way_mask:0 with
  | Cache.Miss { victim = None } -> ()
  | _ -> Alcotest.fail "empty mask must bypass");
  check_bool "nothing allocated" false (Cache.probe c ~line:9)

let test_cache_touch_and_invalidate () =
  let c = Cache.create ~name:"c" ~sets:2 ~ways:2 in
  check_bool "touch miss does not allocate" false (Cache.touch c ~line:5);
  check_bool "still absent" false (Cache.probe c ~line:5);
  ignore (Cache.access c ~line:5 ~way_mask:(full c));
  check_bool "touch hit" true (Cache.touch c ~line:5);
  check_bool "invalidate present" true (Cache.invalidate c ~line:5);
  check_bool "invalidate absent" false (Cache.invalidate c ~line:5);
  check_bool "gone" false (Cache.probe c ~line:5)

let prop_cache_capacity =
  QCheck.Test.make ~name:"cache never holds more lines than capacity" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (sets, ways) ->
      let c = Cache.create ~name:"c" ~sets ~ways in
      let present = Hashtbl.create 64 in
      for line = 0 to 499 do
        (match Cache.access c ~line ~way_mask:(Cache.full_mask c) with
        | Cache.Hit -> ()
        | Cache.Miss { victim } ->
          Hashtbl.replace present line ();
          Option.iter (Hashtbl.remove present) victim);
        ()
      done;
      Hashtbl.length present <= sets * ways
      && Hashtbl.fold (fun l () ok -> ok && Cache.probe c ~line:l) present true)

(* A list-based reference LRU for one set: its ways in index order, each
   free or holding a line with the time of its last use.  A hit refreshes
   the way; a miss fills the first free allowed way, else the least
   recently used allowed way, and with no allowed way bypasses.  Results
   use [Cache.access_raw]'s encoding. *)
type ref_way = Free | Held of int * int (* line, last use *)

let ref_access set ~now ~line ~mask =
  let ways = List.mapi (fun w x -> (w, x)) !set in
  let put w x = set := List.mapi (fun i y -> if i = w then x else y) !set in
  let has_line = function Held (l, _) -> l = line | Free -> false in
  match List.find_opt (fun (_, x) -> has_line x) ways with
  | Some (w, _) ->
    put w (Held (line, now));
    -2
  | None -> (
    let allowed = List.filter (fun (w, _) -> mask land (1 lsl w) <> 0) ways in
    let lru =
      List.fold_left
        (fun best (w, x) ->
          match (best, x) with
          | _, Free -> best
          | None, Held (l, t) -> Some (w, l, t)
          | Some (_, _, bt), Held (l, t) when t < bt -> Some (w, l, t)
          | Some _, Held _ -> best)
        None allowed
    in
    match (List.find_opt (fun (_, x) -> x = Free) allowed, lru) with
    | Some (w, _), _ ->
      put w (Held (line, now));
      -1
    | None, Some (w, l, _) ->
      put w (Held (line, now));
      l
    | None, None -> -1)

let ref_invalidate set ~line =
  let had = List.exists (function Held (l, _) -> l = line | Free -> false) !set in
  set := List.map (function Held (l, _) when l = line -> Free | x -> x) !set;
  had

(* One set, so the reference needs no set mapping: the victim scan is
   per set.  Each step is an access under a random way mask (one step in
   ten has the empty mask, one the full mask) or an invalidation, which
   leaves holes for the first-free rule to find. *)
let prop_cache_matches_reference_lru =
  QCheck.Test.make ~name:"access_raw agrees with a reference LRU" ~count:300
    QCheck.(
      pair (oneofl [ 1; 8; 12; 16 ])
        (list_of_size (Gen.int_range 1 400)
           (triple (int_bound 40) (int_bound 65535) (int_bound 9))))
    (fun (ways, steps) ->
      let c = Cache.create ~name:"c" ~sets:1 ~ways in
      let set = ref (List.init ways (fun _ -> Free)) in
      let now = ref 0 in
      List.for_all
        (fun (l, m, kind) ->
          let line = l mod ((2 * ways) + 3) in
          match kind with
          | 0 -> Cache.invalidate c ~line = ref_invalidate set ~line
          | _ ->
            let mask =
              match kind with 1 -> 0 | 2 -> full c | _ -> m land full c
            in
            incr now;
            Cache.access_raw c ~line ~way_mask:mask
            = ref_access set ~now:!now ~line ~mask)
        steps)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)
(* ------------------------------------------------------------------ *)

let mk () = Hierarchy.create (Hierarchy.small_geometry ~cores:4)
let costs = Costs.default

let test_hier_latency_ladder () =
  let h = mk () in
  let cold = Hierarchy.load h ~core:0 ~addr:0x1000 ~size:8 in
  check_int "cold load pays DRAM" costs.Costs.dram cold;
  let warm = Hierarchy.load h ~core:0 ~addr:0x1000 ~size:8 in
  check_int "second load hits L1" costs.Costs.l1_hit warm

let test_hier_llc_hit_from_other_core () =
  let h = mk () in
  ignore (Hierarchy.load h ~core:0 ~addr:0x1000 ~size:8);
  let lat = Hierarchy.load h ~core:1 ~addr:0x1000 ~size:8 in
  check_int "other core hits shared LLC" costs.Costs.llc_hit lat

let test_hier_write_invalidates_sharers () =
  let h = mk () in
  ignore (Hierarchy.load h ~core:0 ~addr:0x2000 ~size:8);
  ignore (Hierarchy.load h ~core:1 ~addr:0x2000 ~size:8);
  check_bool "core1 has private copy" true
    (Hierarchy.probe_private h ~core:1 ~addr:0x2000);
  let lat = Hierarchy.store h ~core:0 ~addr:0x2000 ~size:8 in
  check_bool "writer pays invalidation" true (lat >= costs.Costs.invalidate);
  check_bool "core1 copy invalidated" false
    (Hierarchy.probe_private h ~core:1 ~addr:0x2000);
  let s = Hierarchy.core_stats h ~core:0 in
  check_int "invalidation counted" 1 s.Hierarchy.invalidations_sent

let test_hier_dirty_transfer () =
  let h = mk () in
  ignore (Hierarchy.store h ~core:0 ~addr:0x3000 ~size:8);
  let lat = Hierarchy.load h ~core:1 ~addr:0x3000 ~size:8 in
  check_bool "reader pays dirty transfer" true
    (lat >= costs.Costs.dirty_transfer);
  let s = Hierarchy.core_stats h ~core:1 in
  check_int "dirty transfer counted" 1 s.Hierarchy.dirty_transfers;
  (* after the forward, reading again from core 1 is a private hit *)
  let lat2 = Hierarchy.load h ~core:1 ~addr:0x3000 ~size:8 in
  check_int "then hits L1" costs.Costs.l1_hit lat2

let test_hier_dma_write_ddio () =
  let h = mk () in
  Hierarchy.dma_write h ~addr:0x4000 ~size:64;
  check_bool "DMA allocated into LLC" true (Hierarchy.probe_llc h ~addr:0x4000);
  let lat = Hierarchy.load h ~core:0 ~addr:0x4000 ~size:8 in
  check_int "CPU load after DMA hits LLC" costs.Costs.llc_hit lat;
  let hits, misses = Hierarchy.nic_dma_stats h in
  check_int "one DDIO miss" 1 misses;
  check_int "no DDIO hit yet" 0 hits;
  (* second DMA write to the same line updates in place *)
  Hierarchy.dma_write h ~addr:0x4000 ~size:64;
  let hits, _ = Hierarchy.nic_dma_stats h in
  check_int "in-place DDIO hit" 1 hits

let test_hier_dma_write_snoops_private () =
  let h = mk () in
  ignore (Hierarchy.load h ~core:2 ~addr:0x5000 ~size:8);
  check_bool "private copy" true (Hierarchy.probe_private h ~core:2 ~addr:0x5000);
  Hierarchy.dma_write h ~addr:0x5000 ~size:64;
  check_bool "DMA snooped private copy out" false
    (Hierarchy.probe_private h ~core:2 ~addr:0x5000)

let test_hier_dma_read_no_allocate () =
  let h = mk () in
  Hierarchy.dma_read h ~addr:0x6000 ~size:64;
  check_bool "DMA read does not allocate" false
    (Hierarchy.probe_llc h ~addr:0x6000);
  let _, misses = Hierarchy.nic_dma_stats h in
  check_int "counted as miss" 1 misses

let test_hier_ddio_confined_to_mask () =
  (* Fill the LLC from a core (all ways), then DMA-write fresh lines: they
     may only displace lines in the DDIO ways, so at most
     ddio_ways/llc_ways of the core's lines may disappear. *)
  let geo = Hierarchy.small_geometry ~cores:1 in
  let h = Hierarchy.create geo in
  let total = geo.Hierarchy.llc_sets * geo.Hierarchy.llc_ways in
  for i = 0 to total - 1 do
    ignore (Hierarchy.load h ~core:0 ~addr:(i * 64) ~size:1)
  done;
  let resident_before = ref [] in
  for i = 0 to total - 1 do
    if Hierarchy.probe_llc h ~addr:(i * 64) then
      resident_before := i :: !resident_before
  done;
  (* DMA a big burst of new lines *)
  for i = 0 to (2 * geo.Hierarchy.llc_sets) - 1 do
    Hierarchy.dma_write h ~addr:((total + i) * 64) ~size:1
  done;
  let survivors =
    List.length
      (List.filter (fun i -> Hierarchy.probe_llc h ~addr:(i * 64)) !resident_before)
  in
  let frac = float_of_int survivors /. float_of_int (List.length !resident_before) in
  let min_frac =
    float_of_int (geo.Hierarchy.llc_ways - geo.Hierarchy.ddio_ways)
    /. float_of_int geo.Hierarchy.llc_ways
  in
  check_bool
    (Printf.sprintf "non-DDIO ways untouched (%.2f >= %.2f)" frac min_frac)
    true
    (frac >= min_frac -. 0.05)

let test_hier_clos_isolation () =
  (* Two cores with disjoint CLOS masks must not evict each other's LLC
     lines. *)
  let geo = Hierarchy.small_geometry ~cores:2 in
  let h = Hierarchy.create geo in
  Hierarchy.set_clos h ~core:0 0b00001111;
  Hierarchy.set_clos h ~core:1 0b11110000;
  let per_core = geo.Hierarchy.llc_sets * 4 in
  for i = 0 to per_core - 1 do
    ignore (Hierarchy.load h ~core:0 ~addr:(i * 64) ~size:1)
  done;
  let resident = ref [] in
  for i = 0 to per_core - 1 do
    if Hierarchy.probe_llc h ~addr:(i * 64) then resident := i :: !resident
  done;
  (* core 1 streams a large footprint through its own ways *)
  for i = 0 to (4 * per_core) - 1 do
    ignore (Hierarchy.load h ~core:1 ~addr:((1 lsl 30) + (i * 64)) ~size:1)
  done;
  List.iter
    (fun i ->
      check_bool "core0 line survived core1 streaming" true
        (Hierarchy.probe_llc h ~addr:(i * 64)))
    !resident

let test_hier_empty_clos_bypasses () =
  let h = mk () in
  Hierarchy.set_clos h ~core:0 0;
  ignore (Hierarchy.load h ~core:0 ~addr:0x7000 ~size:8);
  check_bool "no LLC allocation with empty CLOS" false
    (Hierarchy.probe_llc h ~addr:0x7000);
  (* but private caches still hold it *)
  let lat = Hierarchy.load h ~core:0 ~addr:0x7000 ~size:8 in
  check_int "L1 hit" costs.Costs.l1_hit lat

let test_hier_multiline_streaming () =
  let h = mk () in
  let one = Hierarchy.load h ~core:0 ~addr:0x100000 ~size:8 in
  Hierarchy.reset_stats h;
  let h2 = mk () in
  let sixteen = Hierarchy.load h2 ~core:0 ~addr:0x200000 ~size:1024 in
  check_bool "16 lines cost more than 1" true (sixteen > one);
  check_bool "but far less than 16 full misses" true
    (sixteen < 16 * costs.Costs.dram)

let test_hier_prefetch_batch_overlap () =
  let h = mk () in
  let addrs = Array.init 8 (fun i -> 0x800000 + (i * 4096)) in
  let batched = Hierarchy.prefetch_batch h ~core:0 addrs in
  (* all 8 are cold DRAM misses; overlapped cost must be far below serial *)
  check_bool "overlap beats serial" true (batched < 8 * costs.Costs.dram);
  check_bool "overlap costs at least one miss" true
    (batched >= costs.Costs.dram);
  (* everything was actually fetched *)
  Array.iter
    (fun a ->
      let lat = Hierarchy.load h ~core:0 ~addr:a ~size:8 in
      check_int "prefetched line hits L1" costs.Costs.l1_hit lat)
    addrs

let test_hier_mlp_grouping () =
  let geo = Hierarchy.small_geometry ~cores:1 in
  let h = Hierarchy.create ~costs:{ costs with Costs.mlp = 4 } geo in
  let addrs = Array.init 8 (fun i -> 0x900000 + (i * 4096)) in
  let batched = Hierarchy.prefetch_batch h ~core:0 addrs in
  (* 8 cold misses with MLP 4 -> 2 groups of one DRAM latency each *)
  let expected = (2 * costs.Costs.dram) + (8 * costs.Costs.prefetch_issue) in
  check_int "two MLP groups" expected batched

let test_hier_stats_reset () =
  let h = mk () in
  ignore (Hierarchy.load h ~core:0 ~addr:0xA000 ~size:8);
  Hierarchy.reset_stats h;
  let s = Hierarchy.core_stats h ~core:0 in
  check_int "dram reset" 0 s.Hierarchy.dram_fetches;
  check_int "l1 reset" 0 s.Hierarchy.l1_hits

let test_hier_miss_rate () =
  let s =
    {
      Hierarchy.l1_hits = 0;
      l2_hits = 0;
      llc_hits = 75;
      dram_fetches = 25;
      invalidations_sent = 0;
      dirty_transfers = 0;
    }
  in
  Alcotest.(check (float 0.0001)) "miss rate" 0.25 (Hierarchy.llc_miss_rate s)

let prop_hier_load_latency_bounds =
  QCheck.Test.make ~name:"load latency within [l1_hit, dram+penalties]"
    ~count:300
    QCheck.(pair (int_bound 3) (int_bound 10_000))
    (fun (core, slot) ->
      let h = mk () in
      ignore (Hierarchy.load h ~core ~addr:(slot * 64) ~size:8);
      let lat = Hierarchy.load h ~core ~addr:(slot * 64) ~size:8 in
      lat >= costs.Costs.l1_hit && lat <= costs.Costs.dram)


(* ------------------------------------------------------------------ *)
(* Coherence / random-operation properties                             *)
(* ------------------------------------------------------------------ *)

let prop_hier_random_ops_sane =
  QCheck.Test.make
    ~name:"random load/store sequences keep latencies within the model"
    ~count:60
    QCheck.(list_of_size (Gen.int_range 1 300) (triple (int_bound 3) (int_bound 2047) bool))
    (fun ops ->
      let h = mk () in
      let c = Costs.default in
      let upper =
        c.Costs.dram + c.Costs.dirty_transfer + c.Costs.invalidate
        + (4 * c.Costs.invalidate_per_extra_sharer)
      in
      List.for_all
        (fun (core, slot, write) ->
          let addr = slot * 64 in
          let lat =
            if write then Hierarchy.store h ~core ~addr ~size:8
            else Hierarchy.load h ~core ~addr ~size:8
          in
          lat >= c.Costs.l1_hit && lat <= upper)
        ops)

let prop_hier_dirty_reader_never_stale_cost =
  QCheck.Test.make
    ~name:"after a remote write, the first reader pays more than a local hit"
    ~count:100
    QCheck.(pair (int_bound 1023) (int_bound 2))
    (fun (slot, writer) ->
      let h = mk () in
      let addr = slot * 64 in
      let reader = (writer + 1) mod 3 in
      ignore (Hierarchy.store h ~core:writer ~addr ~size:8);
      let lat = Hierarchy.load h ~core:reader ~addr ~size:8 in
      lat > Costs.default.Costs.l1_hit)

let test_hier_write_write_bounce () =
  (* two cores alternately writing one line: every write after the first
     pays coherence, and the line is always exclusively owned *)
  let h = mk () in
  let addr = 0xBEEF00 in
  ignore (Hierarchy.store h ~core:0 ~addr ~size:8);
  let costs = ref [] in
  for i = 1 to 10 do
    let core = i land 1 in
    costs := Hierarchy.store h ~core ~addr ~size:8 :: !costs
  done;
  List.iter
    (fun c ->
      check_bool "bounced write pays dirty+invalidate" true
        (c >= Costs.default.Costs.dirty_transfer))
    !costs;
  let s0 = Hierarchy.core_stats h ~core:0 and s1 = Hierarchy.core_stats h ~core:1 in
  check_bool "invalidations flowed both ways" true
    (s0.Hierarchy.invalidations_sent > 0 && s1.Hierarchy.invalidations_sent > 0)

let test_hier_invalidate_cost_scales_with_sharers () =
  let geo = Hierarchy.small_geometry ~cores:8 in
  let cost_with_sharers n =
    let h = Hierarchy.create geo in
    let addr = 0x4000 in
    for c = 1 to n do
      ignore (Hierarchy.load h ~core:c ~addr ~size:8)
    done;
    ignore (Hierarchy.load h ~core:0 ~addr ~size:8);
    Hierarchy.store h ~core:0 ~addr ~size:8
  in
  let one = cost_with_sharers 1 and many = cost_with_sharers 6 in
  check_bool
    (Printf.sprintf "6 sharers (%d) cost more than 1 (%d)" many one)
    true (many > one)

(* ------------------------------------------------------------------ *)
(* Directory memory                                                    *)
(* ------------------------------------------------------------------ *)

let words h = Obj.reachable_words (Obj.repr h)

(* One directory chunk: 65,536 packed entries plus the array header. *)
let chunk_words = 65_536 + 1

(* A few lines at the start of regions placed the way Slab (1 GiB per
   size class) and the B+tree (2 GiB) place theirs, from Layout's 1 MiB
   base: the directory grows by one chunk per region touched, not by an
   array reaching the highest line (about line 3 * 2^24 here). *)
let test_dir_follows_footprint () =
  let h = mk () in
  let fresh = words h in
  let l = Layout.create () in
  let regions =
    [
      Layout.region l ~name:"slab-64B" ~size:(1 lsl 30);
      Layout.region l ~name:"btree-nodes" ~size:(1 lsl 31);
      Layout.region l ~name:"slab-128B" ~size:(1 lsl 30);
    ]
  in
  List.iter
    (fun r ->
      for i = 0 to 15 do
        let addr = Layout.base r + (i * 64) in
        ignore (Hierarchy.store h ~core:(i land 3) ~addr ~size:8);
        ignore (Hierarchy.load h ~core:((i + 1) land 3) ~addr ~size:8)
      done)
    regions;
  let grown = words h - fresh in
  check_bool
    (Printf.sprintf "directory grew by %d words, within 3 chunks" grown)
    true
    (grown <= 3 * chunk_words)

(* Lines 65,535 and 65,536 sit in different chunks and keep their own
   sharer and dirty state. *)
let test_dir_chunk_boundary () =
  let h = mk () in
  let a = 65_535 * 64 and b = 65_536 * 64 in
  ignore (Hierarchy.store h ~core:0 ~addr:a ~size:8);
  ignore (Hierarchy.store h ~core:1 ~addr:b ~size:8);
  let forward = costs.Costs.dirty_transfer + costs.Costs.llc_hit in
  check_int "b forwarded from its writer" forward
    (Hierarchy.load h ~core:2 ~addr:b ~size:8);
  check_int "a forwarded from its writer" forward
    (Hierarchy.load h ~core:1 ~addr:a ~size:8);
  (* b is shared by cores 1 and 2, clean; a by cores 0 and 1 *)
  check_int "writing b invalidates b's two sharers"
    (costs.Costs.llc_hit + costs.Costs.invalidate
    + costs.Costs.invalidate_per_extra_sharer)
    (Hierarchy.store h ~core:0 ~addr:b ~size:8);
  check_bool "core 1 keeps a" true (Hierarchy.probe_private h ~core:1 ~addr:a);
  check_bool "core 1 lost b" false (Hierarchy.probe_private h ~core:1 ~addr:b);
  check_int "writing a invalidates only core 1"
    (costs.Costs.l1_hit + costs.Costs.invalidate)
    (Hierarchy.store h ~core:0 ~addr:a ~size:8)

(* The DDIO snoop of a line whose chunk no core ever cached from finds
   no sharers and allocates no chunk; the write itself lands in the LLC
   as for any other line. *)
let test_dir_dma_unallocated_chunk () =
  let h = mk () in
  ignore (Hierarchy.load h ~core:0 ~addr:0x1000 ~size:8);
  let before = words h in
  let far = (1 lsl 31) + 0x1000 in
  Hierarchy.dma_write h ~addr:far ~size:128;
  check_int "no chunk allocated" before (words h);
  let _, misses = Hierarchy.nic_dma_stats h in
  check_int "two DDIO misses" 2 misses;
  check_int "CPU load after DMA hits LLC" costs.Costs.llc_hit
    (Hierarchy.load h ~core:1 ~addr:far ~size:8);
  check_int "the load allocated one chunk" (before + chunk_words) (words h)

(* ------------------------------------------------------------------ *)
(* Lazy directory against an eager reference                           *)
(* ------------------------------------------------------------------ *)

(* The directory [Hierarchy] kept before its entries became supersets:
   every L1 or L2 eviction drops the core's sharer bit, and its dirty
   ownership, once neither level still holds the line.  Its entries are
   exact, so no decision filters them.  Built on the public [Cache], over
   the same geometry and costs. *)
module Eager = struct
  type t = {
    cores : int;
    l1 : Cache.t array;
    l2 : Cache.t array;
    llc : Cache.t;
    clos : int array;
    ddio_mask : int;
    dir : (int, int * int) Hashtbl.t; (* line -> sharers, dirty owner or -1 *)
    stats : int array array; (* per core, in [Hierarchy.stats] order *)
    mutable nic_hits : int;
    mutable nic_misses : int;
  }

  let create (g : Hierarchy.geometry) =
    let mk sets ways _ = Cache.create ~name:"eager" ~sets ~ways in
    {
      cores = g.cores;
      l1 = Array.init g.cores (mk g.l1_sets g.l1_ways);
      l2 = Array.init g.cores (mk g.l2_sets g.l2_ways);
      llc = mk g.llc_sets g.llc_ways 0;
      clos = Array.make g.cores ((1 lsl g.llc_ways) - 1);
      ddio_mask = (1 lsl g.ddio_ways) - 1;
      dir = Hashtbl.create 64;
      stats = Array.init g.cores (fun _ -> Array.make 6 0);
      nic_hits = 0;
      nic_misses = 0;
    }

  let entry t line = Option.value (Hashtbl.find_opt t.dir line) ~default:(0, -1)

  let dir_remove_sharer t line core =
    let sharers, dirty = entry t line in
    Hashtbl.replace t.dir line
      (sharers land lnot (1 lsl core), if dirty = core then -1 else dirty)

  (* [victim] was evicted from one level of [core]; [sibling] is the other *)
  let evicted t core victim sibling =
    if victim >= 0 && not (Cache.probe sibling.(core) ~line:victim) then
      dir_remove_sharer t victim core

  let evicted_from_l1 t core line =
    let c = t.l1.(core) in
    evicted t core (Cache.access_raw c ~line ~way_mask:(Cache.full_mask c)) t.l2

  let evicted_from_l2 t core line =
    let c = t.l2.(core) in
    evicted t core (Cache.access_raw c ~line ~way_mask:(Cache.full_mask c)) t.l1

  let add_sharer t line core =
    let sharers, dirty = entry t line in
    Hashtbl.replace t.dir line (sharers lor (1 lsl core), dirty)

  let access t ~core ~line ~write =
    let c = Costs.default in
    let st = t.stats.(core) in
    let bump i = st.(i) <- st.(i) + 1 in
    let base =
      if Cache.touch t.l1.(core) ~line then begin
        bump 0;
        c.Costs.l1_hit
      end
      else if Cache.touch t.l2.(core) ~line then begin
        bump 1;
        evicted_from_l1 t core line;
        add_sharer t line core;
        c.Costs.l2_hit
      end
      else begin
        let sharers, dirty = entry t line in
        let penalty =
          if dirty >= 0 && dirty <> core then begin
            bump 5;
            Hashtbl.replace t.dir line (sharers, -1);
            c.Costs.dirty_transfer
          end
          else 0
        in
        let fetch =
          if Cache.access_raw t.llc ~line ~way_mask:t.clos.(core) = -2 || penalty > 0
          then begin
            bump 2;
            c.Costs.llc_hit
          end
          else begin
            bump 3;
            c.Costs.dram
          end
        in
        evicted_from_l2 t core line;
        evicted_from_l1 t core line;
        add_sharer t line core;
        penalty + fetch
      end
    in
    if not write then base
    else begin
      let sharers, _ = entry t line in
      let bit = 1 lsl core in
      let remote = sharers land lnot bit in
      if remote = 0 then begin
        Hashtbl.replace t.dir line (sharers lor bit, core);
        base
      end
      else begin
        let n = ref 0 in
        for r = 0 to t.cores - 1 do
          if remote land (1 lsl r) <> 0 then begin
            ignore (Cache.invalidate t.l1.(r) ~line);
            ignore (Cache.invalidate t.l2.(r) ~line);
            incr n
          end
        done;
        Hashtbl.replace t.dir line (bit, core);
        bump 4;
        base + c.Costs.invalidate + ((!n - 1) * c.Costs.invalidate_per_extra_sharer)
      end
    end

  let dma_write t ~line =
    let sharers, _ = entry t line in
    for r = 0 to t.cores - 1 do
      if sharers land (1 lsl r) <> 0 then begin
        ignore (Cache.invalidate t.l1.(r) ~line);
        ignore (Cache.invalidate t.l2.(r) ~line)
      end
    done;
    Hashtbl.remove t.dir line;
    if Cache.probe t.llc ~line then begin
      t.nic_hits <- t.nic_hits + 1;
      ignore (Cache.touch t.llc ~line)
    end
    else begin
      t.nic_misses <- t.nic_misses + 1;
      ignore (Cache.access_raw t.llc ~line ~way_mask:t.ddio_mask)
    end
end

type hier_op =
  | Load of int * int (* core, line *)
  | Store of int * int
  | Dma of int
  | Clos of int * int (* core, LLC way mask *)

let hier_op_print = function
  | Load (c, l) -> Printf.sprintf "Load(%d,%d)" c l
  | Store (c, l) -> Printf.sprintf "Store(%d,%d)" c l
  | Dma l -> Printf.sprintf "Dma %d" l
  | Clos (c, m) -> Printf.sprintf "Clos(%d,%#x)" c m

(* Lines mix a hot 64-line range, for sharing and dirty ownership, with a
   cold 2,048-line range that overflows each core's L1 and L2, so owners
   and sharers lose lines to evictions before others touch them. *)
let hier_op_gen =
  QCheck.Gen.(
    let line = frequency [ (3, int_bound 63); (2, int_bound 2047) ] in
    let core = int_bound 3 in
    frequency
      [
        (6, map2 (fun c l -> Load (c, l)) core line);
        (4, map2 (fun c l -> Store (c, l)) core line);
        (1, map (fun l -> Dma l) line);
        (1, map2 (fun c m -> Clos (c, m)) core (int_bound 255));
      ])

let prop_lazy_dir_matches_eager =
  QCheck.Test.make
    ~name:"lazy directory gives the eager directory's costs and stats"
    ~count:100
    (QCheck.make
       ~print:QCheck.Print.(list hier_op_print)
       QCheck.Gen.(list_size (int_range 1 3000) hier_op_gen))
    (fun ops ->
      let geo = Hierarchy.small_geometry ~cores:4 in
      let h = Hierarchy.create geo and e = Eager.create geo in
      let same_costs =
        List.for_all
          (function
            | Load (core, line) ->
              Hierarchy.load h ~core ~addr:(line * 64) ~size:8
              = Eager.access e ~core ~line ~write:false
            | Store (core, line) ->
              Hierarchy.store h ~core ~addr:(line * 64) ~size:8
              = Eager.access e ~core ~line ~write:true
            | Dma line ->
              Hierarchy.dma_write h ~addr:(line * 64) ~size:64;
              Eager.dma_write e ~line;
              true
            | Clos (core, mask) ->
              Hierarchy.set_clos h ~core mask;
              e.Eager.clos.(core) <- mask;
              true)
          ops
      in
      let same_stats core =
        let s = Hierarchy.core_stats h ~core in
        [|
          s.Hierarchy.l1_hits;
          s.l2_hits;
          s.llc_hits;
          s.dram_fetches;
          s.invalidations_sent;
          s.dirty_transfers;
        |]
        = e.Eager.stats.(core)
      in
      let same_private core =
        List.for_all
          (fun line ->
            Hierarchy.probe_private h ~core ~addr:(line * 64)
            = (Cache.probe e.Eager.l1.(core) ~line
              || Cache.probe e.Eager.l2.(core) ~line))
          (List.init 2048 Fun.id)
      in
      same_costs
      && List.for_all same_stats [ 0; 1; 2; 3 ]
      && List.for_all same_private [ 0; 1; 2; 3 ]
      && Hierarchy.nic_dma_stats h = (e.Eager.nic_hits, e.Eager.nic_misses))

(* [core] touches 1,024 other lines, enough to push [addr] out of its L1
   and L2 by conflict (about 32 lines per L2 set) while the LLC, with
   about 2 per set, keeps it. *)
let evict_privately h ~core ~addr =
  for i = 1 to 1024 do
    ignore (Hierarchy.load h ~core ~addr:(addr + (i * 64)) ~size:8)
  done;
  check_bool "evicted from the private levels" false
    (Hierarchy.probe_private h ~core ~addr);
  check_bool "still in the LLC" true (Hierarchy.probe_llc h ~addr)

let test_dir_evicted_owner_clean () =
  let h = mk () in
  let addr = 0x40_0000 in
  ignore (Hierarchy.store h ~core:0 ~addr ~size:8);
  evict_privately h ~core:0 ~addr;
  check_int "reader pays an LLC hit, no dirty transfer" costs.Costs.llc_hit
    (Hierarchy.load h ~core:1 ~addr ~size:8);
  check_int "no dirty transfer counted" 0
    (Hierarchy.core_stats h ~core:1).Hierarchy.dirty_transfers;
  (* the owner itself re-reading its evicted line is clean too *)
  let h = mk () in
  ignore (Hierarchy.store h ~core:0 ~addr ~size:8);
  evict_privately h ~core:0 ~addr;
  check_int "owner re-reads at LLC cost" costs.Costs.llc_hit
    (Hierarchy.load h ~core:0 ~addr ~size:8);
  check_int "then another reader pays no transfer" costs.Costs.llc_hit
    (Hierarchy.load h ~core:1 ~addr ~size:8)

let test_dir_evicted_sharer_not_invalidated () =
  let h = mk () in
  let addr = 0x40_0000 in
  ignore (Hierarchy.load h ~core:1 ~addr ~size:8);
  ignore (Hierarchy.load h ~core:2 ~addr ~size:8);
  evict_privately h ~core:2 ~addr;
  ignore (Hierarchy.load h ~core:0 ~addr ~size:8);
  check_int "write invalidates core 1 only"
    (costs.Costs.l1_hit + costs.Costs.invalidate)
    (Hierarchy.store h ~core:0 ~addr ~size:8);
  check_int "one invalidation round" 1
    (Hierarchy.core_stats h ~core:0).Hierarchy.invalidations_sent;
  (* with every other sharer gone the write is a plain hit *)
  let h = mk () in
  ignore (Hierarchy.load h ~core:2 ~addr ~size:8);
  evict_privately h ~core:2 ~addr;
  ignore (Hierarchy.load h ~core:0 ~addr ~size:8);
  check_int "no sharer left: no invalidation" costs.Costs.l1_hit
    (Hierarchy.store h ~core:0 ~addr ~size:8);
  check_int "no invalidation round" 0
    (Hierarchy.core_stats h ~core:0).Hierarchy.invalidations_sent

let () =
  Alcotest.run "mem"
    [
      ( "layout",
        [
          Alcotest.test_case "lines" `Quick test_layout_lines;
          Alcotest.test_case "regions disjoint" `Quick test_layout_regions_disjoint;
          Alcotest.test_case "alloc" `Quick test_layout_alloc;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "way mask allocation" `Quick test_cache_way_mask_allocation;
          Alcotest.test_case "hit across masks" `Quick test_cache_hit_across_masks;
          Alcotest.test_case "empty mask bypass" `Quick test_cache_empty_mask_bypasses;
          Alcotest.test_case "touch/invalidate" `Quick test_cache_touch_and_invalidate;
          QCheck_alcotest.to_alcotest prop_cache_capacity;
          QCheck_alcotest.to_alcotest prop_cache_matches_reference_lru;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latency ladder" `Quick test_hier_latency_ladder;
          Alcotest.test_case "llc shared" `Quick test_hier_llc_hit_from_other_core;
          Alcotest.test_case "write invalidates" `Quick test_hier_write_invalidates_sharers;
          Alcotest.test_case "dirty transfer" `Quick test_hier_dirty_transfer;
          Alcotest.test_case "dma write ddio" `Quick test_hier_dma_write_ddio;
          Alcotest.test_case "dma snoops private" `Quick test_hier_dma_write_snoops_private;
          Alcotest.test_case "dma read no alloc" `Quick test_hier_dma_read_no_allocate;
          Alcotest.test_case "ddio confined" `Quick test_hier_ddio_confined_to_mask;
          Alcotest.test_case "clos isolation" `Quick test_hier_clos_isolation;
          Alcotest.test_case "empty clos bypass" `Quick test_hier_empty_clos_bypasses;
          Alcotest.test_case "multiline streaming" `Quick test_hier_multiline_streaming;
          Alcotest.test_case "prefetch overlap" `Quick test_hier_prefetch_batch_overlap;
          Alcotest.test_case "mlp grouping" `Quick test_hier_mlp_grouping;
          Alcotest.test_case "stats reset" `Quick test_hier_stats_reset;
          Alcotest.test_case "miss rate" `Quick test_hier_miss_rate;
          QCheck_alcotest.to_alcotest prop_hier_load_latency_bounds;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "write-write bounce" `Quick test_hier_write_write_bounce;
          Alcotest.test_case "invalidate scales" `Quick test_hier_invalidate_cost_scales_with_sharers;
          QCheck_alcotest.to_alcotest prop_hier_random_ops_sane;
          QCheck_alcotest.to_alcotest prop_hier_dirty_reader_never_stale_cost;
        ] );
      ( "directory",
        [
          Alcotest.test_case "memory follows footprint" `Quick
            test_dir_follows_footprint;
          Alcotest.test_case "chunk boundary" `Quick test_dir_chunk_boundary;
          Alcotest.test_case "dma on unallocated chunk" `Quick
            test_dir_dma_unallocated_chunk;
          Alcotest.test_case "evicted owner is clean" `Quick
            test_dir_evicted_owner_clean;
          Alcotest.test_case "evicted sharer not invalidated" `Quick
            test_dir_evicted_sharer_not_invalidated;
          QCheck_alcotest.to_alcotest prop_lazy_dir_matches_eager;
        ] );
    ]
