type geometry = {
  cores : int;
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  llc_sets : int;
  llc_ways : int;
  ddio_ways : int;
}

let default_geometry ~cores =
  {
    cores;
    l1_sets = 64;
    l1_ways = 8;
    l2_sets = 1024;
    l2_ways = 16;
    (* 42 MB / 64 B / 12 ways *)
    llc_sets = 57_344;
    llc_ways = 12;
    ddio_ways = 2;
  }

let small_geometry ~cores =
  {
    cores;
    l1_sets = 8;
    l1_ways = 4;
    l2_sets = 32;
    l2_ways = 8;
    llc_sets = 512;
    llc_ways = 8;
    ddio_ways = 2;
  }

type mutable_stats = {
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable llc_hits : int;
  mutable dram_fetches : int;
  mutable invalidations_sent : int;
  mutable dirty_transfers : int;
}

type stats = {
  l1_hits : int;
  l2_hits : int;
  llc_hits : int;
  dram_fetches : int;
  invalidations_sent : int;
  dirty_transfers : int;
}

(* Directory: which cores hold the line in a private cache, and which (if
   any) holds it dirty.  Each entry is packed into one int —
   [sharers lsl 7 lor (dirty + 1)], 0 = absent — in a two-level table
   indexed by line number: a top array with one slot per [chunk_lines]
   lines of the address space {!Cache} can tag, and a chunk of entries
   allocated the first time a line inside it is privately cached.  A
   chunk never allocated is [no_chunk]: all its lines are absent.  So
   memory follows the footprint, rounded up to chunks, and not the
   address span, which is mostly reserved and untouched ([Slab] reserves
   1 GiB per size class, the B+tree 2 GiB).  Within a chunk the table is
   dense, for the HOST machine's sake: a lookup is two indexed reads (no
   hashing, no probe chain, no key compare), and adjacent simulated lines
   land in adjacent entries, so the workload's spatial locality (B-tree
   nodes, item payloads) carries over to the simulator's directory
   traffic instead of being destroyed by a hash.  An entry packed as 0
   (no sharers, no dirty owner) is observationally identical to an
   absent line at every use site, so "removal" just stores 0.

   An entry is a superset, not an exact record: an L1 or L2 eviction
   leaves the directory alone, so a sharer bit or a dirty owner may
   outlive the core's copy.  Keeping them exact would cost a write to a
   cold directory entry and a probe of the sibling level on every
   private fill.  The two decisions that depend on them filter through
   the caches themselves, in {!access_line}: the miss path charges a
   dirty transfer only if the recorded owner still {!holds} the line,
   and the write path counts only the remote sharers whose
   {!Cache.invalidate} found it.  The DDIO snoop needs no filter:
   invalidating an absent line changes nothing.  So every cost and
   statistic is the one an exact directory gives. *)
let chunk_shift = 16
let chunk_lines = 1 lsl chunk_shift
let chunk_mask = chunk_lines - 1
let no_chunk : int array = [||]

type t = {
  geometry : geometry;
  costs : Costs.t;
  l1 : Cache.t array;
  l2 : Cache.t array;
  llc : Cache.t;
  clos : int array;
  ddio_mask : int;
  dir : int array array;  (* chunks of packed entries; 0 = absent *)
  stats : mutable_stats array;
  mutable nic_llc_hits : int;
  mutable nic_llc_misses : int;
  (* Functional-warming regime (interval sampling, lib/sample): when on,
     CPU accesses bypass the cache arrays and pay a flat per-line cost
     calibrated from the hit mix observed so far; the hit-mix statistics
     continue deterministically at the calibrated ratios so interval
     signatures stay comparable across regimes.  NIC DMA stays detailed
     (it keeps LLC/DDIO state live). *)
  mutable warming : bool;
  mutable warm_load_cost : int;
  mutable warm_store_cost : int;
  mutable warm_l1 : int;  (* cumulative mix thresholds out of 1024 *)
  mutable warm_l2 : int;
  mutable warm_llc : int;
  mutable warm_tick : int;
}

let fresh_stats () : mutable_stats =
  {
    l1_hits = 0;
    l2_hits = 0;
    llc_hits = 0;
    dram_fetches = 0;
    invalidations_sent = 0;
    dirty_transfers = 0;
  }

let create ?(costs = Costs.default) geometry =
  if geometry.cores <= 0 then invalid_arg "Hierarchy.create: no cores";
  if geometry.ddio_ways > geometry.llc_ways then
    invalid_arg "Hierarchy.create: ddio_ways > llc_ways";
  let mk_private name sets ways i =
    Cache.create ~name:(Printf.sprintf "%s[%d]" name i) ~sets ~ways
  in
  let full = (1 lsl geometry.llc_ways) - 1 in
  {
    geometry;
    costs;
    l1 = Array.init geometry.cores (mk_private "l1" geometry.l1_sets geometry.l1_ways);
    l2 = Array.init geometry.cores (mk_private "l2" geometry.l2_sets geometry.l2_ways);
    llc = Cache.create ~name:"llc" ~sets:geometry.llc_sets ~ways:geometry.llc_ways;
    clos = Array.make geometry.cores full;
    ddio_mask = (1 lsl geometry.ddio_ways) - 1;
    dir = Array.make (Cache.max_line lsr chunk_shift) no_chunk;
    stats = Array.init geometry.cores (fun _ -> fresh_stats ());
    nic_llc_hits = 0;
    nic_llc_misses = 0;
    warming = false;
    warm_load_cost = costs.Costs.l2_hit;
    warm_store_cost = costs.Costs.l2_hit + 1;
    warm_l1 = 720;
    warm_l2 = 920;
    warm_llc = 990;
    warm_tick = 0;
  }

let geometry t = t.geometry
let costs t = t.costs
let cores t = t.geometry.cores
let ddio_mask t = t.ddio_mask
let full_llc_mask t = Cache.full_mask t.llc
let llc_ways t = t.geometry.llc_ways

let set_clos t ~core mask = t.clos.(core) <- mask land full_llc_mask t
let clos t ~core = t.clos.(core)

(* The packed-entry accessors.  dirty = -1 means no dirty owner. *)
let dir_sharers v = v lsr 7
let dir_dirty v = (v land 127) - 1
let dir_pack ~sharers ~dirty = (sharers lsl 7) lor (dirty + 1)

(* [line]'s chunk has been allocated.  Lines past the top array are
   never allocated: {!Cache} rejects them before any fill. *)
let[@inline] dir_allocated t line =
  let hi = line lsr chunk_shift in
  hi < Array.length t.dir && Array.length (Array.unsafe_get t.dir hi) > 0

(* Only for a line whose chunk is allocated. *)
let[@inline] dir_val t line =
  Array.unsafe_get
    (Array.unsafe_get t.dir (line lsr chunk_shift))
    (line land chunk_mask)

let[@inline] dir_set_val t line v =
  Array.unsafe_set
    (Array.unsafe_get t.dir (line lsr chunk_shift))
    (line land chunk_mask) v

let dir_grow t line =
  t.dir.(line lsr chunk_shift) <- (Array.make chunk_lines 0
  [@alloc.allow
    "directory chunk: one per 64K-line chunk holding a privately cached \
     line, so bounded by the touched footprint; cold after warmup"])

(* Slot of [line] — the line number itself — allocating its chunk if
   needed. *)
let[@inline] dir_ensure t line =
  if not (dir_allocated t line) then dir_grow t line;
  line

(* Core [c] holds [line] in a private level: the directory entry's claim
   about [c], checked against the caches themselves. *)
let holds t c (line : int) =
  Cache.probe t.l1.(c) ~line || Cache.probe t.l2.(c) ~line

(* Invalidate [line] in the private levels of every core in [remote];
   returns how many of them held it.  A core whose sharer bit outlived its
   copy finds nothing to invalidate and is not counted. *)
let rec invalidate_core_loop t line remote c n =
  if c >= t.geometry.cores then n
  else if remote land (1 lsl c) <> 0 then begin
    let in_l1 = Cache.invalidate t.l1.(c) ~line in
    let in_l2 = Cache.invalidate t.l2.(c) ~line in
    invalidate_core_loop t line remote (c + 1) (if in_l1 || in_l2 then n + 1 else n)
  end
  else invalidate_core_loop t line remote (c + 1) n

(* One line, full path; returns latency in cycles.  The directory is
   read and written once per phase and never on an L1 or L2 hit: the miss
   path ensures the slot, settles the dirty owner and records the new
   sharer in one write; the write tail invalidates the remote sharers and
   leaves sharers = just this core, dirty = this core. *)
let access_line t ~core ~line ~write =
  let c = t.costs in
  let st = t.stats.(core) in
  let base_latency =
    if Cache.touch t.l1.(core) ~line then begin
      st.l1_hits <- st.l1_hits + 1;
      c.Costs.l1_hit
    end
    else if Cache.touch t.l2.(core) ~line then begin
      st.l2_hits <- st.l2_hits + 1;
      (* refresh L1; the core's sharer bit is already set *)
      ignore
        (Cache.access_raw t.l1.(core) ~line
           ~way_mask:(Cache.full_mask t.l1.(core)));
      c.Costs.l2_hit
    end
    else begin
      (* remote-dirty check happens before the LLC lookup.  A recorded
         owner that no longer holds the line wrote it back, so the line is
         clean; that includes this core, which just missed in both
         levels. *)
      let di = dir_ensure t line in
      let v = dir_val t di in
      let d = dir_dirty v in
      let dirty_penalty =
        if d >= 0 && holds t d line then begin
          st.dirty_transfers <- st.dirty_transfers + 1;
          c.Costs.dirty_transfer
        end
        else 0
      in
      let fetch =
        if Cache.access_raw t.llc ~line ~way_mask:t.clos.(core) = -2 then begin
          st.llc_hits <- st.llc_hits + 1;
          c.Costs.llc_hit
        end
        else if dirty_penalty > 0 then begin
          (* forwarded cache-to-cache: no DRAM trip *)
          st.llc_hits <- st.llc_hits + 1;
          c.Costs.llc_hit
        end
        else begin
          st.dram_fetches <- st.dram_fetches + 1;
          c.Costs.dram
        end
      in
      (* install into the private levels; their victims keep their
         directory entries (see the directory comment) *)
      ignore
        (Cache.access_raw t.l2.(core) ~line
           ~way_mask:(Cache.full_mask t.l2.(core)));
      ignore
        (Cache.access_raw t.l1.(core) ~line
           ~way_mask:(Cache.full_mask t.l1.(core)));
      dir_set_val t di
        (dir_pack ~sharers:(dir_sharers v lor (1 lsl core)) ~dirty:(-1));
      dirty_penalty + fetch
    end
  in
  if write then begin
    let di = dir_ensure t line in
    let bit = 1 lsl core in
    let remote = dir_sharers (dir_val t di) land lnot bit in
    let n = if remote = 0 then 0 else invalidate_core_loop t line remote 0 0 in
    dir_set_val t di (dir_pack ~sharers:bit ~dirty:core);
    if n = 0 then base_latency
    else begin
      st.invalidations_sent <- st.invalidations_sent + 1;
      base_latency + c.Costs.invalidate
      + ((n - 1) * c.Costs.invalidate_per_extra_sharer)
    end
  end
  else base_latency

(* Synthesize the calibrated hit mix during warming: a rotating residue
   mod 1024 (odd stride, full period) is compared against the cumulative
   thresholds, so the generated mix converges on the calibrated ratios
   deterministically and without allocation. *)
let rec warm_account t (st : mutable_stats) n =
  if n > 0 then begin
    let r = t.warm_tick land 1023 in
    t.warm_tick <- t.warm_tick + 421;
    if r < t.warm_l1 then st.l1_hits <- st.l1_hits + 1
    else if r < t.warm_l2 then st.l2_hits <- st.l2_hits + 1
    else if r < t.warm_llc then st.llc_hits <- st.llc_hits + 1
    else st.dram_fetches <- st.dram_fetches + 1;
    warm_account t st (n - 1)
  end

let set_warming t on =
  if on && not t.warming then begin
    (* calibrate the flat per-line costs and the synthetic mix from the
       traffic observed so far (warmup + detailed intervals) *)
    let l1 = ref 0 and l2 = ref 0 and llc = ref 0 and dram = ref 0
    and dirty = ref 0 and inv = ref 0 in
    Array.iter
      (fun (s : mutable_stats) ->
        l1 := !l1 + s.l1_hits;
        l2 := !l2 + s.l2_hits;
        llc := !llc + s.llc_hits;
        dram := !dram + s.dram_fetches;
        dirty := !dirty + s.dirty_transfers;
        inv := !inv + s.invalidations_sent)
      t.stats;
    let acc = !l1 + !l2 + !llc + !dram in
    if acc > 0 then begin
      let c = t.costs in
      let cyc =
        (!l1 * c.Costs.l1_hit) + (!l2 * c.Costs.l2_hit)
        + (!llc * c.Costs.llc_hit) + (!dram * c.Costs.dram)
        + (!dirty * c.Costs.dirty_transfer)
      in
      t.warm_load_cost <- max 1 (cyc / acc);
      t.warm_store_cost <- max 1 ((cyc + (!inv * c.Costs.invalidate)) / acc);
      t.warm_l1 <- !l1 * 1024 / acc;
      t.warm_l2 <- t.warm_l1 + (!l2 * 1024 / acc);
      t.warm_llc <- t.warm_l2 + (!llc * 1024 / acc)
    end
    (* no traffic yet: keep the constructor's L2-ish defaults *)
  end;
  t.warming <- on

let warming t = t.warming

let rec multi_line_loop t ~core ~write first n sf i total =
  if i >= n then total
  else begin
    let cost = access_line t ~core ~line:(first + i) ~write in
    (* trailing sequential lines ride the hardware prefetcher *)
    let cost =
      if i = 0 then cost
      else begin
        let c = cost / sf in
        if c < 1 then 1 else c
      end
    in
    multi_line_loop t ~core ~write first n sf (i + 1) (total + cost)
  end

let multi_line t ~core ~addr ~size ~write =
  if t.warming then begin
    let n = Layout.lines_spanned ~addr ~size in
    warm_account t (Array.unsafe_get t.stats core) n;
    n * (if write then t.warm_store_cost else t.warm_load_cost)
  end
  else begin
    let first = Layout.line_of_addr addr in
    let n = Layout.lines_spanned ~addr ~size in
    multi_line_loop t ~core ~write first n t.costs.Costs.stream_factor 0 0
  end

let[@hot] load t ~core ~addr ~size = multi_line t ~core ~addr ~size ~write:false
let[@hot] store t ~core ~addr ~size = multi_line t ~core ~addr ~size ~write:true

(* Accumulates (total, group_max, in_group) as plain int arguments; each
   MLP group pays only its slowest fetch. *)
let rec prefetch_loop t ~core addrs n mlp i total group_max in_group =
  if i >= n then total + group_max
  else begin
    let lat =
      access_line t ~core ~line:(Layout.line_of_addr addrs.(i)) ~write:false
    in
    let group_max = if lat > group_max then lat else group_max in
    let in_group = in_group + 1 in
    if in_group = mlp then
      prefetch_loop t ~core addrs n mlp (i + 1) (total + group_max) 0 0
    else prefetch_loop t ~core addrs n mlp (i + 1) total group_max in_group
  end

let[@hot] prefetch_batch t ~core addrs =
  let n = Array.length addrs in
  if n = 0 then 0
  else if t.warming then begin
    let c = t.costs in
    warm_account t (Array.unsafe_get t.stats core) n;
    (* each MLP group pays one flat fetch, plus the issue slots *)
    (((n + c.Costs.mlp - 1) / c.Costs.mlp) * t.warm_load_cost)
    + (n * c.Costs.prefetch_issue)
  end
  else begin
    let c = t.costs in
    prefetch_loop t ~core addrs n c.Costs.mlp 0 0 0 0
    + (n * c.Costs.prefetch_issue)
  end

let dma_write t ~addr ~size =
  let first = Layout.line_of_addr addr in
  let n = Layout.lines_spanned ~addr ~size in
  for i = 0 to n - 1 do
    let line = first + i in
    (* DDIO snoops out any core-private copies. *)
    (if dir_allocated t line then begin
       let v = dir_val t line in
       if v <> 0 then begin
         let sharers = dir_sharers v in
         for c = 0 to t.geometry.cores - 1 do
           if sharers land (1 lsl c) <> 0 then begin
             ignore (Cache.invalidate t.l1.(c) ~line);
             ignore (Cache.invalidate t.l2.(c) ~line)
           end
         done;
         dir_set_val t line 0
       end
     end);
    if Cache.probe t.llc ~line then begin
      t.nic_llc_hits <- t.nic_llc_hits + 1;
      ignore (Cache.touch t.llc ~line)
    end
    else begin
      t.nic_llc_misses <- t.nic_llc_misses + 1;
      ignore (Cache.access t.llc ~line ~way_mask:t.ddio_mask)
    end
  done

let dma_read t ~addr ~size =
  let first = Layout.line_of_addr addr in
  let n = Layout.lines_spanned ~addr ~size in
  for i = 0 to n - 1 do
    let line = first + i in
    if Cache.probe t.llc ~line then begin
      t.nic_llc_hits <- t.nic_llc_hits + 1;
      ignore (Cache.touch t.llc ~line)
    end
    else t.nic_llc_misses <- t.nic_llc_misses + 1
  done

let core_stats t ~core =
  let s = t.stats.(core) in
  {
    l1_hits = s.l1_hits;
    l2_hits = s.l2_hits;
    llc_hits = s.llc_hits;
    dram_fetches = s.dram_fetches;
    invalidations_sent = s.invalidations_sent;
    dirty_transfers = s.dirty_transfers;
  }

let llc_miss_rate (s : stats) =
  let lookups = s.llc_hits + s.dram_fetches in
  if lookups = 0 then 0.0
  else float_of_int s.dram_fetches /. float_of_int lookups

let nic_dma_stats t = (t.nic_llc_hits, t.nic_llc_misses)

let reset_stats t =
  Array.iter
    (fun (s : mutable_stats) ->
      s.l1_hits <- 0;
      s.l2_hits <- 0;
      s.llc_hits <- 0;
      s.dram_fetches <- 0;
      s.invalidations_sent <- 0;
      s.dirty_transfers <- 0)
    t.stats;
  t.nic_llc_hits <- 0;
  t.nic_llc_misses <- 0;
  Array.iter Cache.reset_stats t.l1;
  Array.iter Cache.reset_stats t.l2;
  Cache.reset_stats t.llc

let probe_llc t ~addr = Cache.probe t.llc ~line:(Layout.line_of_addr addr)

let probe_private t ~core ~addr = holds t core (Layout.line_of_addr addr)
