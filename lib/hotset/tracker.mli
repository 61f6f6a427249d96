(** Hot-set tracking pipeline (§3.2.2, after Nap): worker threads cheaply
    sample accessed keys; a background manager periodically folds the
    samples through a count-min sketch and a top-K heap to produce the next
    hot set. *)

type t

val create : sample_every:int -> t
(** Record one of every [sample_every] offered keys, in a buffer of 65,536
    samples (older samples are overwritten ring-style). *)

val record : t -> int64 -> unit
(** Called by worker threads on each processed key; cheap and allocation
    free off the sampling path. *)

val samples_pending : t -> int

val rebuild : t -> k:int -> (int64 * int) array
(** Fold pending samples and return the top-[k] keys with estimated
    frequencies, hottest first; resets the sample buffer for the next
    window. *)
