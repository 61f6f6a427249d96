type t = {
  name : string;
  sets : int;
  ways : int;
  set_mask : int;  (* sets - 1 when sets is a power of two, else -1 *)
  (* One word per way: [tag lsl stamp_bits lor stamp].  -1 = invalid (its tag
     field reads back as 2^27 - 1, unreachable for real lines, so the
     match scan needs no separate validity test).  Packing matters
     because the simulator's tag store is itself a memory-bound working
     set — the modelled LLC alone is half a million ways — and a set
     probe that walks 8 bytes per way instead of 16 halves the host
     cache lines each simulated access touches.  33 stamp bits defer
     LRU-clock wraparound past 8*10^9 accesses per cache instance; 29
     tag bits cover a 32 GiB simulated address space (lines are
     addr/64) — enough for every slab size class (1 GiB reserved each)
     plus the 2 GiB btree arena to materialize. *)
  data : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let stamp_bits = 33
let max_line = 1 lsl (62 - stamp_bits)
let stamp_mask = (1 lsl stamp_bits) - 1

let create ~name ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Cache.create";
  if ways > 62 then invalid_arg "Cache.create: too many ways for a way mask";
  {
    name;
    sets;
    ways;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    data = Array.make (sets * ways) (-1);
    clock = 0;
    hits = 0;
    misses = 0;
  }

let name t = t.name
let sets t = t.sets
let ways t = t.ways
let capacity_lines t = t.sets * t.ways
let full_mask t = (1 lsl t.ways) - 1

let check_line line =
  if line < 0 || line >= max_line then invalid_arg "Cache: line out of range"

(* Fibonacci-style mixing spreads sequential lines over sets even when
   [sets] is not a power of two.  [h lsr 16] is non-negative, so for
   power-of-two set counts the mask equals the mod — same mapping, no
   integer division on the hot path (L1 and L2 are always pow2). *)
let set_of_line t line =
  let h = (line * 0x9E3779B97F4A7C1) lsr 16 in
  if t.set_mask >= 0 then h land t.set_mask else h mod t.sets

type outcome = Hit | Miss of { victim : int option }

(* Top-level tail-recursive scans: called from every lookup, so they must
   not close over anything (a local [let rec] with free variables becomes
   a heap-allocated closure per call). *)
let rec find_way_from data base (tagbits : int) ways w =
  if w = ways then -1
  else if Array.unsafe_get data (base + w) lsr stamp_bits = tagbits then w
  else find_way_from data base tagbits ways (w + 1)

(* [(-1) lsr stamp_bits = 2^30 - 1 >= max_line]: invalid ways can never
   match. *)
let find_way t base line = find_way_from t.data base line t.ways 0

(* Single-pass combined match + LRU-victim scan.  Early-exits with
   [w + 1] (positive) on a tag match.  Otherwise each way gets one rank
   key and the victim is the least key: a free allowed way ranks by its
   index, a valid allowed way by [(stamp lsl 6) lor w], a way outside the
   mask at [max_int].  Stamps start at 1, so every free way ranks before
   every valid one: the policy is the first free allowed way, else the
   least recently used allowed way.  The key and the running minimum are
   computed without branches ([e asr 62] is -1 exactly for a free way,
   [d land (d asr 62)] is [min d 0]), so only the tag match is a branch.
   Returns [-(best + 2)] where [best] is the victim way ([-1] = no
   allowed way).  Running both searches in one sweep halves the set walks
   on the miss path. *)
let rec match_or_victim data base (line : int) mask ways w best =
  if w = ways then if best = max_int then -1 else -((best land 63) + 2)
  else begin
    let e = Array.unsafe_get data (base + w) in
    if e lsr stamp_bits = line then w + 1
    else begin
      let key =
        ((e land stamp_mask) lsl 6) land lnot (e asr 62)
        lor w
        lor ((((mask lsr w) land 1) - 1) land max_int)
      in
      let d = key - best in
      match_or_victim data base line mask ways (w + 1) (best + (d land (d asr 62)))
    end
  end

(* Allocation-free access for hot callers: -2 = hit, -1 = miss with
   nothing evicted (empty mask or a free way), >= 0 = the evicted line.
   Line numbers are byte addresses / line size, hence never negative, so
   the encoding is unambiguous. *)
let[@hot] access_raw t ~line ~way_mask =
  check_line line;
  t.clock <- t.clock + 1;
  let base = set_of_line t line * t.ways in
  let mask = way_mask land full_mask t in
  let r = match_or_victim t.data base line mask t.ways 0 max_int in
  if r > 0 then begin
    t.hits <- t.hits + 1;
    t.data.(base + r - 1) <- (line lsl stamp_bits) lor t.clock;
    -2
  end
  else begin
    t.misses <- t.misses + 1;
    let best = -r - 2 in
    if best < 0 then -1
    else begin
      let i = base + best in
      let old = Array.unsafe_get t.data i in
      let victim = if old = -1 then -1 else old lsr stamp_bits in
      t.data.(i) <- (line lsl stamp_bits) lor t.clock;
      victim
    end
  end

let access t ~line ~way_mask =
  match access_raw t ~line ~way_mask with
  | -2 -> Hit
  | -1 -> Miss { victim = None }
  | v -> Miss { victim = Some v }

let touch t ~line =
  check_line line;
  t.clock <- t.clock + 1;
  let base = set_of_line t line * t.ways in
  let w = find_way t base line in
  if w >= 0 then begin
    t.hits <- t.hits + 1;
    t.data.(base + w) <- (line lsl stamp_bits) lor t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

let probe t ~line =
  check_line line;
  let base = set_of_line t line * t.ways in
  find_way t base line >= 0

let invalidate t ~line =
  check_line line;
  let base = set_of_line t line * t.ways in
  let w = find_way t base line in
  if w >= 0 then begin
    t.data.(base + w) <- -1;
    true
  end
  else false

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
