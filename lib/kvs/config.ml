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
  dlb : bool;
      (** offload the CR-MR queue to an Intel DLB-style hardware queue —
          the paper's §6 future work, kept as an opt-in ablation *)
  hot_k : int;  (** hot-cache capacity (items) *)
  sample_every : int;  (** hot-set sampling rate *)
  refresh_cycles : int;  (** hot-set refresh period *)
}

let default ?(cores = 8) ?(index = Tree) ~capacity () =
  {
    cores;
    index;
    capacity;
    geometry = None;
    costs = Mutps_mem.Costs.default;
    batch = 8;
    crmr_slots = 16;
    dlb = false;
    hot_k = 10_000;
    sample_every = 16;
    (* 20 ms at 2.5 GHz *)
    refresh_cycles = 50_000_000;
  }

(* the simulated network link *)
let link = Mutps_net.Link.default_config

(* seeds the cuckoo index's hash salt and eviction choices *)
let seed = 42

(* request header parse / dispatch *)
let parse_cycles = 30

(* Per-request front-end overhead of run-to-completion workers: the
   monolithic poll→index→copy→respond function blows the instruction
   cache, branch predictors and prefetcher state that μTPS's small stage
   loops keep warm.  §2.2.1's replay experiment measures stage separation
   alone at 1.22-1.54× on ~500-cycle operations, i.e. 110-270 cycles; we
   use 150 (60 ns at 2.5 GHz). *)
let rtc_extra_cycles = 150

(* backoff when a poll finds nothing *)
let poll_idle_cycles = 120

(* Max time a partially filled CR-MR batch may wait before being pushed
   (bounds queueing latency at low load without giving up batching at
   saturation). *)
let flush_cycles = 4_000

let total_cores t = t.cores + 1
let manager_core t = t.cores

(** Cache geometry scaled to a store of [keyspace] items: the paper runs
    10M items against a 42 MB LLC (~70× overflow); a scaled run keeps that
    pressure by shrinking LLC and L2 proportionally (LLC floor 2 MB). *)
let scaled_geometry ~cores ~keyspace =
  let g = Mutps_mem.Hierarchy.default_geometry ~cores:(cores + 1) in
  let factor = Float.max 0.05 (float_of_int keyspace /. 10_000_000.0) in
  let scale sets floor =
    max floor (int_of_float (float_of_int sets *. factor))
  in
  {
    g with
    Mutps_mem.Hierarchy.llc_sets = scale g.Mutps_mem.Hierarchy.llc_sets 2_730;
    l2_sets = scale g.Mutps_mem.Hierarchy.l2_sets 128;
  }

let pp_index fmt = function
  | Hash -> Format.pp_print_string fmt "hash"
  | Tree -> Format.pp_print_string fmt "tree"
