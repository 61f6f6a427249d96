(** Server configuration shared by every system (μTPS, BaseKV, eRPC-KV).

    The simulated machine gets [cores + 1] cores: [cores] worker cores (the
    paper's 28) plus one housekeeping core for the management/auto-tuning
    thread, which all systems receive for fairness even when they leave it
    idle. *)

type index_kind = Hash | Tree

type t = {
  cores : int;  (** worker cores *)
  index : index_kind;
  capacity : int;  (** expected item count (sizes the index) *)
  geometry : Mutps_mem.Hierarchy.geometry option;
      (** cache geometry override; [None] = the testbed's 42 MB LLC.
          Scaled-down experiments shrink the LLC to keep the paper's
          footprint-to-LLC ratio (a 10M-item store vs 42 MB). *)
  costs : Mutps_mem.Costs.t;
  batch : int;  (** CR-MR batch size; also the RTC pipeline batch *)
  crmr_slots : int;  (** ring slots per CR-MR pair *)
  dlb : bool;  (** offload the CR-MR queue to a DLB-style hardware queue *)
  hot_k : int;  (** hot-cache capacity (items) *)
  sample_every : int;  (** hot-set sampling rate *)
  refresh_cycles : int;  (** hot-set refresh period *)
}

val default : ?cores:int -> ?index:index_kind -> capacity:int -> unit -> t

val link : Mutps_net.Link.config
(** The simulated network link ([Link.default_config]). *)

val seed : int
(** Seed of the cuckoo index's hash salt and eviction choices (42). *)

val parse_cycles : int
(** Request header parse / dispatch, per request (30). *)

val rtc_extra_cycles : int
(** Per-request front-end overhead of run-to-completion workers (150):
    §2.2.1's replay experiment measures stage separation alone at
    110-270 cycles per op. *)

val poll_idle_cycles : int
(** Back-off when a poll finds nothing (120). *)

val flush_cycles : int
(** Max time a partially filled CR-MR batch may wait before being pushed
    (4,000). *)

val total_cores : t -> int
(** Worker cores plus the housekeeping core. *)

val manager_core : t -> int

val scaled_geometry :
  cores:int -> keyspace:int -> Mutps_mem.Hierarchy.geometry
(** Cache geometry scaled to a store of [keyspace] items: the paper runs
    10M items against a 42 MB LLC (~70× overflow); a scaled run keeps that
    pressure by shrinking LLC and L2 proportionally (LLC floor 2 MB). *)

val pp_index : Format.formatter -> index_kind -> unit
