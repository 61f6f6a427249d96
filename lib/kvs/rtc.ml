(** Run-to-completion worker pool: each worker handles its requests start
    to finish (poll → parse → index → data → respond).  Batching and
    prefetching are enabled (the worker drains up to [batch] requests and
    indexes them together), matching the paper's BaseKV ("optimizations
    such as reconfigurable RPC, batching, and prefetching are enabled").

    Parameterized by transport and lock mode, this pool is both BaseKV
    (reconfigurable RPC + share-everything locking) and eRPC-KV (eRPC +
    share-nothing exclusive writes). *)

module Env = Mutps_mem.Env
module Simthread = Mutps_sim.Simthread
module Request = Mutps_queue.Request
module Transport = Mutps_net.Transport
module Message = Mutps_net.Message
module Index = Mutps_index.Index_intf

type stats = { mutable ops : int; mutable batches : int }

let make_stats () = { ops = 0; batches = 0 }

let worker_body ?substrate (backend : Backend.t) (tr : Transport.t) ~lock
    ~worker (stats : stats) ctx =
  let cfg = backend.Backend.config in
  let sub =
    Option.value substrate ~default:(Substrate.sim cfg ~hier:backend.Backend.hier)
  in
  let env = sub.Substrate.make_env ctx ~core:worker in
  let index = backend.Backend.index in
  let batch = cfg.Config.batch in
  let polled = Array.make batch None in
  (* per-batch scratch, allocated once: [batch_lookup] and
     [prefetch_batch] take a whole array, so there is one of each length *)
  let keys_of_len = Array.init (batch + 1) (fun m -> Array.make m 0L) in
  let addrs_of_len = Array.init (batch + 1) (fun m -> Array.make m 0) in
  let slot = Array.make batch (-1) in  (* polled i -> its [located] index *)
  while true do
    (* drain up to a batch of requests from our slots *)
    let n = ref 0 in
    let continue = ref true in
    while !continue && !n < cfg.Config.batch do
      match tr.Transport.poll env ~worker with
      | Some (seq, msg) ->
        Env.compute env (cfg.Config.parse_cycles + cfg.Config.rtc_extra_cycles);
        polled.(!n) <- Some (seq, msg);
        incr n
      | None -> continue := false
    done;
    if !n = 0 then sub.Substrate.idle ctx
    else begin
      stats.batches <- stats.batches + 1;
      stats.ops <- stats.ops + !n;
      (* batched index lookup over the point-op keys, in polled order; a
         DEL or an insert re-points the later positions of its key *)
      let m = ref 0 in
      for i = 0 to !n - 1 do
        match polled.(i) with
        | Some (_, (msg : Message.t))
          when msg.Message.req.Request.kind <> Request.Scan ->
          slot.(i) <- !m;
          incr m
        | Some _ | None -> slot.(i) <- -1
      done;
      let point_keys = keys_of_len.(!m) in
      for i = 0 to !n - 1 do
        match polled.(i) with
        | Some (_, msg) when slot.(i) >= 0 ->
          point_keys.(slot.(i)) <- msg.Message.req.Request.key
        | Some _ | None -> ()
      done;
      let located = index.Index.batch_lookup env point_keys in
      (* prefetch the located items before the copy stage (the paper's
         BaseKV has batching and prefetching enabled) *)
      let found = ref 0 in
      Array.iter (fun item -> if Option.is_some item then incr found) located;
      if !found > 0 then begin
        let item_addrs = addrs_of_len.(!found) in
        let k = ref 0 in
        Array.iter
          (function
            | Some item ->
              item_addrs.(!k) <- Mutps_store.Item.addr item;
              incr k
            | None -> ())
          located;
        Env.prefetch_batch env item_addrs
      end;
      for i = 0 to !n - 1 do
        match polled.(i) with
        | None -> assert false
        | Some (seq, msg) -> (
          let req = msg.Message.req in
          let key = req.Request.key in
          let item = if slot.(i) >= 0 then located.(slot.(i)) else None in
          match req.Request.kind with
          | Request.Get -> Exec.do_get env tr ~worker ~seq item
          | Request.Put ->
            let written =
              Exec.do_put env tr ~lock ~index ~slab:backend.Backend.slab
                ~worker ~seq msg item
            in
            if Option.is_none item then
              Exec.relocate point_keys located ~from:(slot.(i) + 1) key
                (Some written)
          | Request.Delete ->
            Exec.do_delete env tr ~index ~worker ~seq key;
            Exec.relocate point_keys located ~from:(slot.(i) + 1) key None
          | Request.Scan ->
            Exec.do_scan env tr ~index ~worker ~seq ~key
              ~count:req.Request.scan_count ())
      done;
      sub.Substrate.flush ctx
    end
  done

let start backend tr ~lock ~workers =
  let stats = Array.init workers (fun _ -> make_stats ()) in
  for w = 0 to workers - 1 do
    Simthread.spawn backend.Backend.engine
      ~name:(Printf.sprintf "rtc-%d" w)
      (worker_body backend tr ~lock ~worker:w stats.(w))
  done;
  stats
