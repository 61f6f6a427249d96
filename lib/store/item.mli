(** KV items: real payload bytes plus a simulated 8-byte header holding the
    seqlock (version + lock bit, §3.3 concurrency control).

    Protocols follow the paper: values of 8 bytes or less are updated with a
    single atomic store; larger values take the lock (odd version), copy,
    then release (even version).  Readers validate the version before and
    after the copy and retry on conflict.  Blocked writers spin, re-loading
    the header line — which is what makes contended items expensive in the
    cache model. *)

type t

val header_bytes : int

val create : Slab.t -> value:bytes -> t
val addr : t -> int
val size : t -> int
(** Current payload size in bytes. *)

val total_bytes : t -> int
(** Header + payload. *)

val version : t -> int
val locked : t -> bool

val peek : t -> bytes
(** Raw payload without simulation charges (for tests and setup). *)

val read : Mutps_mem.Env.t -> t -> bytes
(** Seqlock read; charges header+payload loads, retries on conflict. *)

val read_live : Mutps_mem.Env.t -> t -> bytes option
(** {!read}, but [None] when the item is retired. *)

val write : Mutps_mem.Env.t -> t -> bytes -> Slab.t -> unit
(** Locked update (atomic when both old and new payloads are ≤ 8 bytes).
    A payload that changes size class is reallocated from the slab. *)

val write_live : Mutps_mem.Env.t -> t -> bytes -> Slab.t -> bool
(** {!write}, unless the item is retired: then nothing is written and the
    result is [false]. *)

val retire : Mutps_mem.Env.t -> t -> unit
(** Mark the item deleted, for good: its key leaves the index, and
    whoever still holds the item (the CR hot set) must treat it as a
    miss.  {!read} and {!write} still work on it; {!read_live} and
    {!write_live} refuse. *)

val write_exclusive : Mutps_mem.Env.t -> t -> bytes -> Slab.t -> unit
(** Share-nothing update: the caller guarantees it is the only writer, so
    no lock is taken (eRPC-KV's shard-owner path).  Raises
    [Invalid_argument] if a lock is somehow held. *)

val spin_backoff_cycles : int
(** Cycles a blocked writer waits between lock retries. *)

val contended_acquires : t -> int
(** How many lock acquisitions on this item found it locked first
    (diagnostic for contention experiments). *)
