(** Generic set-associative cache with LRU replacement and per-access way
    masks.

    The way mask restricts which ways an access may {e allocate} into — the
    semantics of Intel CAT (and of DDIO's two rightmost ways): lookups hit
    on any way, only fills are constrained.  The cache stores line numbers
    only; data lives in the real OCaml structures of the system under
    simulation. *)

type t

val create : name:string -> sets:int -> ways:int -> t
(** [sets] may be any positive count (real LLCs are not power-of-two sets
    once sliced); lines are spread over sets with a mixing hash. *)

val name : t -> string
val sets : t -> int
val ways : t -> int
val capacity_lines : t -> int

val full_mask : t -> int
(** Mask selecting every way. *)

val max_line : int
(** Every access, probe and invalidation rejects a line at or past this
    bound with [Invalid_argument]: the packed tags cover a 32 GiB
    simulated address space. *)

type outcome =
  | Hit
  | Miss of { victim : int option }
      (** [victim] is the line evicted to make room, if any.  When the way
          mask is empty the access bypasses the cache: [Miss {victim=None}]
          and nothing is allocated. *)

val access : t -> line:int -> way_mask:int -> outcome
(** Lookup + LRU update; allocates into an allowed way on miss. *)

val access_raw : t -> line:int -> way_mask:int -> int
(** Exactly {!access}, encoded without the [outcome] allocation for hot
    callers: [-2] = hit, [-1] = miss that evicted nothing (empty mask or a
    free way), [>= 0] = the line evicted to make room. *)

val touch : t -> line:int -> bool
(** Lookup + LRU update without allocating on miss; true on hit. *)

val probe : t -> line:int -> bool
(** Pure lookup: no state change. *)

val invalidate : t -> line:int -> bool
(** Drop the line; true if it was present. *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
