(** Common interface over the two index structures (§4: μTPS-H uses a
    cuckoo hash, μTPS-T a B+tree).

    Operations take an {!Mutps_mem.Env.t} and charge the simulated memory
    traffic of the traversal; [*_silent] variants mutate without charges and
    are meant for pre-population.  Values are {!Mutps_store.Item.t} handles —
    the index locates items, the store reads/writes them. *)

module Env = Mutps_mem.Env
module Item = Mutps_store.Item

type kind = Hash | Tree

type t = {
  name : string;
  kind : kind;
  lookup : Env.t -> int64 -> Item.t option;
  batch_lookup : Env.t -> int64 array -> Item.t option array;
      (** Batched, prefetch-overlapped lookups (§3.3 batched indexing). *)
  insert : Env.t -> int64 -> Item.t -> unit;
      (** Insert or replace the handle for a key. *)
  remove : Env.t -> int64 -> bool;
  range : Env.t -> lo:int64 -> n:int -> (int64 * Item.t) list;
      (** First [n] entries with key ≥ [lo] in key order.  Raises
          [Invalid_argument] on hash indexes. *)
  insert_silent : int64 -> Item.t -> unit;
  count : unit -> int;
}

(* Sanitizer model: both index structures stand in for internally
   synchronized concurrent structures (the paper's per-partition hash /
   latched B+tree), so the race detector treats each instance as one sync
   object: every charged operation acquires at entry and releases at exit.
   Raw [Env] accesses to index memory outside these wrappers — or
   operations racing with structures that bypass them — still surface.
   [insert_silent] and [count] make no charged accesses and stay bare.
   The trace-site names are built once per index, not per call. *)
let sanitized ops =
  let obj = ref (-1) in
  let guard env site f =
    Env.tagged env site @@ fun () ->
    if !obj < 0 && Env.sanitizing env then
      obj := Env.sync_obj env ("index@" ^ ops.name);
    Env.acquire env !obj;
    let v = f () in
    Env.release env !obj;
    v
  in
  let site op = ops.name ^ "." ^ op in
  let lookup = site "lookup" and batch_lookup = site "batch_lookup" in
  let insert = site "insert" and remove = site "remove" in
  let range = site "range" in
  {
    ops with
    lookup = (fun env k -> guard env lookup (fun () -> ops.lookup env k));
    batch_lookup =
      (fun env ks -> guard env batch_lookup (fun () -> ops.batch_lookup env ks));
    insert = (fun env k v -> guard env insert (fun () -> ops.insert env k v));
    remove = (fun env k -> guard env remove (fun () -> ops.remove env k));
    range =
      (fun env ~lo ~n -> guard env range (fun () -> ops.range env ~lo ~n));
  }
