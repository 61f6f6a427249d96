(** Shared server substrate: one simulated machine (engine + hierarchy +
    address layout), the item store, the index, and the network link.
    Every system (μTPS-H/T, BaseKV, eRPC-KV) is assembled on top of one of
    these. *)

module Engine = Mutps_sim.Engine
module Hierarchy = Mutps_mem.Hierarchy
module Layout = Mutps_mem.Layout
module Slab = Mutps_store.Slab
module Item = Mutps_store.Item
module Index = Mutps_index.Index_intf

type t = {
  config : Config.t;
  engine : Engine.t;
  hier : Hierarchy.t;
  layout : Layout.t;
  slab : Slab.t;
  index : Index.t;
  link : Mutps_net.Link.t;
}

(* Expose the substrate's statistics as metric sources when a registry is
   installed (mutps-cli --metrics / --trace counter tracks).  Readers pull
   whole-machine aggregates; they never touch simulation state. *)
let register_metrics t =
  match Mutps_trace.Metrics.current () with
  | None -> ()
  | Some reg ->
    let module M = Mutps_trace.Metrics in
    let eid = Engine.id t.engine in
    let cores = Hierarchy.cores t.hier in
    let agg field =
      let total = ref 0 in
      for core = 0 to cores - 1 do
        total := !total + field (Hierarchy.core_stats t.hier ~core)
      done;
      float_of_int !total
    in
    let hier name field =
      M.register reg ~kind:M.Counter ~engine_id:eid ~subsystem:"hierarchy"
        ~name (fun () -> agg field)
    in
    hier "l1_hits" (fun s -> s.Hierarchy.l1_hits);
    hier "l2_hits" (fun s -> s.Hierarchy.l2_hits);
    hier "llc_hits" (fun s -> s.Hierarchy.llc_hits);
    hier "dram_fetches" (fun s -> s.Hierarchy.dram_fetches);
    hier "invalidations_sent" (fun s -> s.Hierarchy.invalidations_sent);
    hier "dirty_transfers" (fun s -> s.Hierarchy.dirty_transfers);
    M.register reg ~kind:M.Counter ~engine_id:eid ~subsystem:"nic"
      ~name:"ddio_hits" (fun () ->
        float_of_int (fst (Hierarchy.nic_dma_stats t.hier)));
    M.register reg ~kind:M.Counter ~engine_id:eid ~subsystem:"nic"
      ~name:"ddio_misses" (fun () ->
        float_of_int (snd (Hierarchy.nic_dma_stats t.hier)));
    let link name read =
      M.register reg ~kind:M.Counter ~engine_id:eid ~subsystem:"link" ~name
        (fun () -> float_of_int (read t.link))
    in
    link "rx_messages" Mutps_net.Link.rx_messages;
    link "tx_messages" Mutps_net.Link.tx_messages;
    link "rx_bytes" Mutps_net.Link.rx_bytes;
    link "tx_bytes" Mutps_net.Link.tx_bytes

let create (config : Config.t) =
  let engine = Engine.create () in
  let geometry =
    match config.Config.geometry with
    | Some g -> g
    | None -> Hierarchy.default_geometry ~cores:(Config.total_cores config)
  in
  let hier = Hierarchy.create ~costs:config.Config.costs geometry in
  let layout = Layout.create () in
  (* paper-scale keyspaces (10M items) overflow the 1 GiB default region
     of their item class; tell the slab the expected item count so it can
     size that class's region as it is created.  Classes the run never
     allocates from cost no simulated address space at all. *)
  let slab =
    Slab.create layout ~expected_items:config.Config.capacity ()
  in
  let index =
    match config.Config.index with
    | Config.Hash ->
      Mutps_index.Cuckoo.ops
        (Mutps_index.Cuckoo.create layout ~capacity:config.Config.capacity
           ~seed:Config.seed)
    | Config.Tree ->
      Mutps_index.Btree.ops
        (Mutps_index.Btree.create layout ~seed:Config.seed)
  in
  let link = Mutps_net.Link.create ~config:Config.link () in
  let t = { config; engine; hier; layout; slab; index; link } in
  register_metrics t;
  t

(** Pre-populate the store with every key in [0, keyspace) (silent: no
    simulation charges, like a load phase before measurement).  [size_of]
    overrides the per-key value size for mixed-size workloads (ETC,
    Twitter); default is the fixed [value_size]. *)
let populate ?size_of ?owned t ~keyspace ~value_size =
  let size_of = match size_of with Some f -> f | None -> fun _ -> value_size in
  let owned = match owned with Some f -> f | None -> fun _ -> true in
  for k = 0 to keyspace - 1 do
    let key = Int64.of_int k in
    if owned key then begin
      let value = Mutps_net.Client.payload ~key ~size:(size_of key) in
      let item = Item.create t.slab ~value in
      t.index.Index.insert_silent key item
    end
  done
