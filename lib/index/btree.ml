module Env = Mutps_mem.Env
module Layout = Mutps_mem.Layout
module Item = Mutps_store.Item

let fanout = 14
let node_bytes = 256

(* Bytes of a node actually touched by a search: header plus roughly half
   the key area (binary search), i.e. two of four lines. *)
let probe_bytes = 128

(* Node keys are stored unboxed, 8 bytes each in a [Bytes.t] read with
   [key] below: an [int64 array] holds pointers to boxed values, so each
   comparison of a search would chase one more host cache line. *)
type node = Leaf of leaf | Internal of internal

and leaf = {
  laddr : int;
  mutable lkeys : Bytes.t; (* sorted, nkeys = lsize *)
  mutable litems : Item.t array;
  mutable lnext : leaf option;
}

and internal = {
  iaddr : int;
  (* children.(i) covers keys < key ikeys i; children.(n) covers the rest *)
  mutable ikeys : Bytes.t;
  mutable ichildren : node array;
}

type t = {
  region : Layout.region;
  mutable root : node;
  mutable count : int;
  mutable depth : int;
}

let alloc_addr t = Layout.alloc t.region ~align:64 node_bytes

let node_addr = function Leaf l -> l.laddr | Internal n -> n.iaddr

let create layout ~seed:_ =
  let region = Layout.region layout ~name:"btree-nodes" ~size:(1 lsl 31) in
  let laddr = Layout.alloc region ~align:64 node_bytes in
  {
    region;
    root = Leaf { laddr; lkeys = Bytes.empty; litems = [||]; lnext = None };
    count = 0;
    depth = 1;
  }

let count t = t.count
let depth t = t.depth

(* --- unboxed keys --- *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let nkeys b = Bytes.length b lsr 3
let key b i = get64u b (i lsl 3)

let keys_insert b i k =
  let n = Bytes.length b and off = i lsl 3 in
  let c = Bytes.create (n + 8) in
  Bytes.blit b 0 c 0 off;
  set64u c off k;
  Bytes.blit b off c (off + 8) (n - off);
  c

let keys_remove b i =
  let n = Bytes.length b and off = i lsl 3 in
  let c = Bytes.create (n - 8) in
  Bytes.blit b 0 c 0 off;
  Bytes.blit b (off + 8) c off (n - off - 8);
  c

let keys_sub b i len = Bytes.sub b (i lsl 3) (len lsl 3)

(* index of first key >= k in sorted keys *)
let lower_bound keys (k : int64) =
  let lo = ref 0 and hi = ref (nkeys keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key keys mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

let child_index (n : internal) (k : int64) =
  (* first separator > k gives the child slot *)
  let lo = ref 0 and hi = ref (nkeys n.ikeys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key n.ikeys mid <= k then lo := mid + 1 else hi := mid
  done;
  !lo

(* key [i] of [keys] exists and is [k] *)
let key_is keys i (k : int64) = i < nkeys keys && key keys i = k

(* --- array edit helpers --- *)

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* --- insert --- *)

type split = NoSplit | Split of int64 * node (* separator, new right node *)

let split_leaf t l =
  let n = nkeys l.lkeys in
  let mid = n / 2 in
  let right =
    {
      laddr = alloc_addr t;
      lkeys = keys_sub l.lkeys mid (n - mid);
      litems = Array.sub l.litems mid (n - mid);
      lnext = l.lnext;
    }
  in
  l.lkeys <- keys_sub l.lkeys 0 mid;
  l.litems <- Array.sub l.litems 0 mid;
  l.lnext <- Some right;
  Split (key right.lkeys 0, Leaf right)

let split_internal t n =
  let nk = nkeys n.ikeys in
  let mid = nk / 2 in
  let sep = key n.ikeys mid in
  let right =
    {
      iaddr = alloc_addr t;
      ikeys = keys_sub n.ikeys (mid + 1) (nk - mid - 1);
      ichildren = Array.sub n.ichildren (mid + 1) (nk - mid);
    }
  in
  n.ikeys <- keys_sub n.ikeys 0 mid;
  n.ichildren <- Array.sub n.ichildren 0 (mid + 1);
  Split (sep, Internal right)

let rec insert_rec t env node k item =
  (match env with
  | Some env -> Env.load env ~addr:(node_addr node) ~size:probe_bytes
  | None -> ());
  match node with
  | Leaf l ->
    let i = lower_bound l.lkeys k in
    if key_is l.lkeys i k then begin
      (match env with
      | Some env -> Env.store env ~addr:(l.laddr + (i * 16)) ~size:16
      | None -> ());
      l.litems.(i) <- item;
      NoSplit
    end
    else begin
      l.lkeys <- keys_insert l.lkeys i k;
      l.litems <- array_insert l.litems i item;
      t.count <- t.count + 1;
      (match env with
      | Some env -> Env.store env ~addr:l.laddr ~size:node_bytes
      | None -> ());
      if nkeys l.lkeys > fanout then split_leaf t l else NoSplit
    end
  | Internal n -> (
    let ci = child_index n k in
    match insert_rec t env n.ichildren.(ci) k item with
    | NoSplit -> NoSplit
    | Split (sep, right) ->
      n.ikeys <- keys_insert n.ikeys ci sep;
      n.ichildren <- array_insert n.ichildren (ci + 1) right;
      (match env with
      | Some env -> Env.store env ~addr:n.iaddr ~size:node_bytes
      | None -> ());
      if nkeys n.ikeys > fanout then split_internal t n else NoSplit)

let root_split t result =
  match result with
  | NoSplit -> ()
  | Split (sep, right) ->
    let root =
      Internal
        {
          iaddr = alloc_addr t;
          ikeys = keys_insert Bytes.empty 0 sep;
          ichildren = [| t.root; right |];
        }
    in
    t.root <- root;
    t.depth <- t.depth + 1

let insert t env k item = root_split t (insert_rec t (Some env) t.root k item)
let insert_silent t k item = root_split t (insert_rec t None t.root k item)

(* --- lookup --- *)

let lookup t env k =
  let rec go node =
    Env.load env ~addr:(node_addr node) ~size:probe_bytes;
    match node with
    | Leaf l ->
      let i = lower_bound l.lkeys k in
      if key_is l.lkeys i k then Some l.litems.(i) else None
    | Internal n -> go n.ichildren.(child_index n k)
  in
  go t.root

(* Level-synchronous batched descent: at each level, prefetch the frontier
   of all pending lookups together so their miss latencies overlap.  The
   frontier lives in two flat arrays compacted in place per level
   (surviving lookups keep their relative order, matching the simulated
   access order of the old list-based frontier while allocating only the
   per-level prefetch argument instead of three lists per level). *)
let batch_lookup t env keys =
  let n = Array.length keys in
  let result = Array.make n None in
  let frontier = Array.make n t.root in
  let orig = Array.init n Fun.id in  (* original key index per slot *)
  let live = ref n in
  while !live > 0 do
    let m = !live in
    (* the addresses matter only to a charged (simulated) Env *)
    if Env.charged env then
      Env.prefetch_batch env (Array.init m (fun j -> node_addr frontier.(j)));
    let k = ref 0 in
    for j = 0 to m - 1 do
      let i = orig.(j) in
      Env.load env ~addr:(node_addr frontier.(j)) ~size:probe_bytes;
      match frontier.(j) with
      | Leaf l ->
        let x = lower_bound l.lkeys keys.(i) in
        if key_is l.lkeys x keys.(i) then result.(i) <- Some l.litems.(x)
      | Internal nd ->
        frontier.(!k) <- nd.ichildren.(child_index nd keys.(i));
        orig.(!k) <- i;
        incr k
    done;
    live := !k
  done;
  result

(* --- remove --- *)

(* Removal clears the leaf entry without rebalancing: workloads in the paper
   never shrink the store, and under-full leaves only waste simulated
   address space. *)
let remove t env k =
  let rec go node =
    Env.load env ~addr:(node_addr node) ~size:probe_bytes;
    match node with
    | Leaf l ->
      let i = lower_bound l.lkeys k in
      if key_is l.lkeys i k then begin
        Env.store env ~addr:l.laddr ~size:node_bytes;
        l.lkeys <- keys_remove l.lkeys i;
        l.litems <- array_remove l.litems i;
        t.count <- t.count - 1;
        true
      end
      else false
    | Internal n -> go n.ichildren.(child_index n k)
  in
  go t.root

(* --- range --- *)

let range t env ~lo ~n =
  let rec descend node =
    Env.load env ~addr:(node_addr node) ~size:probe_bytes;
    match node with
    | Leaf l -> l
    | Internal nd -> descend nd.ichildren.(child_index nd lo)
  in
  let leaf = descend t.root in
  let acc = ref [] and taken = ref 0 in
  let rec walk l start =
    if !taken < n then begin
      if start > 0 || l.laddr <> leaf.laddr then
        Env.load env ~addr:l.laddr ~size:node_bytes;
      let i = ref start in
      while !taken < n && !i < nkeys l.lkeys do
        acc := (key l.lkeys !i, l.litems.(!i)) :: !acc;
        incr taken;
        incr i
      done;
      if !taken < n then
        match l.lnext with None -> () | Some next -> walk next 0
    end
  in
  walk leaf (lower_bound leaf.lkeys lo);
  List.rev !acc

(* --- invariants --- *)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let leaves = ref [] in
  let rec walk node ~lo ~hi ~depth =
    (match node with
    | Leaf l ->
      if depth <> t.depth then fail "leaf at depth %d, expected %d" depth t.depth;
      leaves := l :: !leaves;
      for i = 0 to nkeys l.lkeys - 1 do
        let k = key l.lkeys i in
        (match lo with
        | Some lo when Int64.compare k lo < 0 -> fail "leaf key below bound"
        | _ -> ());
        (match hi with
        | Some hi when Int64.compare k hi >= 0 -> fail "leaf key above bound"
        | _ -> ());
        if i > 0 && Int64.compare (key l.lkeys (i - 1)) k >= 0 then
          fail "leaf keys not strictly sorted"
      done;
      if nkeys l.lkeys <> Array.length l.litems then
        fail "leaf keys/items length mismatch"
    | Internal n ->
      let nk = nkeys n.ikeys in
      if Array.length n.ichildren <> nk + 1 then fail "child count mismatch";
      if nk = 0 then fail "empty internal node";
      if nk > fanout then fail "overfull internal node";
      for i = 1 to nk - 1 do
        if Int64.compare (key n.ikeys (i - 1)) (key n.ikeys i) >= 0 then
          fail "separators not sorted"
      done;
      Array.iteri
        (fun i child ->
          let lo' = if i = 0 then lo else Some (key n.ikeys (i - 1)) in
          let hi' = if i = nk then hi else Some (key n.ikeys i) in
          walk child ~lo:lo' ~hi:hi' ~depth:(depth + 1))
        n.ichildren);
    ()
  in
  walk t.root ~lo:None ~hi:None ~depth:1;
  (* leaf chain must visit exactly the leaves, left to right *)
  let in_tree = List.rev !leaves in
  let rec leftmost node =
    match node with Leaf l -> l | Internal n -> leftmost n.ichildren.(0)
  in
  let rec chain l acc =
    match l.lnext with None -> List.rev (l :: acc) | Some nx -> chain nx (l :: acc)
  in
  let chained = chain (leftmost t.root) [] in
  if List.length chained <> List.length in_tree then
    fail "leaf chain length %d <> tree leaves %d" (List.length chained)
      (List.length in_tree);
  List.iter2
    (fun a b -> if a.laddr <> b.laddr then fail "leaf chain out of order")
    chained in_tree;
  let total = List.fold_left (fun acc l -> acc + nkeys l.lkeys) 0 in_tree in
  if total <> t.count then fail "count %d <> leaf total %d" t.count total

let ops t =
  Index_intf.sanitized
  {
    Index_intf.name = "btree";
    kind = Index_intf.Tree;
    lookup = (fun env k -> lookup t env k);
    batch_lookup = (fun env ks -> batch_lookup t env ks);
    insert = (fun env k v -> insert t env k v);
    remove = (fun env k -> remove t env k);
    range = (fun env ~lo ~n -> range t env ~lo ~n);
    insert_silent = (fun k v -> insert_silent t k v);
    count = (fun () -> count t);
  }
