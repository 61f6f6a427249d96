module Simthread = Mutps_sim.Simthread
module Env = Mutps_mem.Env
module Hierarchy = Mutps_mem.Hierarchy
module Item = Mutps_store.Item
module Index = Mutps_index.Index_intf
module Request = Mutps_queue.Request
module Crmr = Mutps_queue.Crmr
module Hotcache = Mutps_hotset.Hotcache
module Tracker = Mutps_hotset.Tracker
module Transport = Mutps_net.Transport
module Message = Mutps_net.Message

type role = Cr | Mr

type t = {
  backend : Backend.t;
  transport : Transport.t;
  crmr : Fwd.t Crmr.t;
  hotcache : Hotcache.t;
  tracker : Tracker.t;
  desired : role array;
  current : role array;
  mutable cr_list : int array; (* threads currently in the CR role *)
  mutable mr_list : int array; (* threads currently in the MR role *)
  mutable push_list : int array; (* MR threads a CR thread may push to *)
  mutable target_ncr : int;
  mutable hot_target : int;
  mutable refresh_asap : bool;
  mutable mr_ways_ : int;
  mutable cr_hits : int;
  mutable forwarded : int;
  mutable responded : int;
  (* layer accounting: busy cycles and operations, for diagnostics *)
  mutable cr_busy : int;
  mutable mr_busy : int;
  mutable mr_ops : int;
  mutable mr_scans : int;
}

(* Without the auto-tuner, an even split is the robust default; tuned
   systems usually land between cores/2 and 2*cores/3 CR threads for
   read-heavy skew and lower for write-heavy (Figure 13a). *)
let default_ncr cores = max 1 (min (cores - 1) (cores / 2))

(* Metric sources over the accounting the server already keeps; pulled at
   dump time and sampled into counter tracks (crmr.in_flight is the ring
   occupancy track, hotcache.hit_rate the hot-cache one). *)
let register_metrics t =
  match Mutps_trace.Metrics.current () with
  | None -> ()
  | Some reg ->
    let module M = Mutps_trace.Metrics in
    let eid = Mutps_sim.Engine.id t.backend.Backend.engine in
    let counter subsystem name read =
      M.register reg ~kind:M.Counter ~engine_id:eid ~subsystem ~name
        (fun () -> float_of_int (read ()))
    in
    let gauge subsystem name read =
      M.register reg ~kind:M.Gauge ~engine_id:eid ~subsystem ~name
        (fun () -> read ())
    in
    counter "kvs" "cr_hits" (fun () -> t.cr_hits);
    counter "kvs" "forwarded" (fun () -> t.forwarded);
    counter "kvs" "cr_busy_cycles" (fun () -> t.cr_busy);
    counter "kvs" "mr_busy_cycles" (fun () -> t.mr_busy);
    counter "kvs" "mr_ops" (fun () -> t.mr_ops);
    counter "kvs" "mr_scans" (fun () -> t.mr_scans);
    gauge "kvs" "ncr" (fun () -> float_of_int t.target_ncr);
    gauge "kvs" "mr_ways" (fun () -> float_of_int t.mr_ways_);
    gauge "crmr" "in_flight" (fun () -> float_of_int (Crmr.in_flight t.crmr));
    gauge "hotcache" "size" (fun () -> float_of_int (Hotcache.size t.hotcache));
    gauge "hotcache" "target" (fun () -> float_of_int t.hot_target);
    gauge "hotcache" "hit_rate" (fun () ->
        let seen = t.cr_hits + t.forwarded in
        if seen = 0 then 0.0
        else float_of_int t.cr_hits /. float_of_int seen)

(* --- role bookkeeping --- *)

(* The targets a CR thread may push to: threads settled in the MR role
   that are to stay there.  Recomputed where either input changes, a role
   switch or a new split, not on every push. *)
let recompute_push_list t =
  t.push_list <-
    Array.of_list
      (List.filter (fun w -> t.desired.(w) = Mr) (Array.to_list t.mr_list))

let recompute_lists t =
  let crs = ref [] and mrs = ref [] in
  Array.iteri
    (fun w r -> match r with Cr -> crs := w :: !crs | Mr -> mrs := w :: !mrs)
    t.current;
  t.cr_list <- Array.of_list (List.rev !crs);
  t.mr_list <- Array.of_list (List.rev !mrs);
  recompute_push_list t

let create ?ncr ?transport (config : Config.t) =
  let cores = config.Config.cores in
  if cores < 2 then invalid_arg "Mutps.create: needs at least 2 worker cores";
  let ncr =
    match ncr with
    | Some n ->
      if n < 1 || n >= cores then invalid_arg "Mutps.create: bad ncr";
      n
    | None -> default_ncr cores
  in
  let backend = Backend.create config in
  let transport =
    match transport with
    | Some tr -> tr
    | None ->
      Mutps_net.Reconf_rpc.transport
        (Mutps_net.Reconf_rpc.create ~engine:backend.Backend.engine
           ~hier:backend.Backend.hier ~layout:backend.Backend.layout
           ~link:backend.Backend.link ~max_workers:cores ~workers:ncr ())
  in
  let crmr =
    Crmr.create ~hw_offload:config.Config.dlb backend.Backend.layout
      ~max_cr:cores ~max_mr:cores ~slots:config.Config.crmr_slots
      ~batch:config.Config.batch ~value_bytes:Fwd.ring_bytes
  in
  let mode =
    match config.Config.index with
    | Config.Tree -> Hotcache.Sorted
    | Config.Hash -> Hotcache.Probed
  in
  let hotcache =
    Hotcache.create backend.Backend.layout ~mode
      ~max_items:(max config.Config.hot_k 1)
  in
  let tracker = Tracker.create ~sample_every:config.Config.sample_every in
  let t =
    {
      backend;
      transport;
      crmr;
      hotcache;
      tracker;
      desired = Array.init cores (fun w -> if w < ncr then Cr else Mr);
      current = Array.init cores (fun w -> if w < ncr then Cr else Mr);
      cr_list = [||];
      mr_list = [||];
      push_list = [||];
      target_ncr = ncr;
      hot_target = config.Config.hot_k;
      refresh_asap = false;
      mr_ways_ = Hierarchy.llc_ways backend.Backend.hier;
      cr_hits = 0;
      forwarded = 0;
      responded = 0;
      cr_busy = 0;
      mr_busy = 0;
      mr_ops = 0;
      mr_scans = 0;
    }
  in
  recompute_lists t;
  register_metrics t;
  t

let backend t = t.backend
let transport t = t.transport
let ncr t = t.target_ncr
let nmr t = t.backend.Backend.config.Config.cores - t.target_ncr
let hot_target t = t.hot_target
let hot_size t = Hotcache.size t.hotcache
let mr_ways t = t.mr_ways_
let cr_hits t = t.cr_hits
let forwarded t = t.forwarded
let layer_stats t = (t.cr_busy, t.mr_busy, t.mr_ops, t.mr_scans)
let responded t = t.responded

let reconfig_settled t =
  (not (t.transport.Transport.reconfig_in_progress ()))
  && Array.for_all2 (fun a b -> a = b) t.desired t.current

(* MR threads allocate into the rightmost [mr_ways] of the LLC; the CR
   layer and the manager keep the full mask (§3.5 "LLC allocation"). *)
let apply_clos t =
  let hier = t.backend.Backend.hier in
  let full = Hierarchy.full_llc_mask hier in
  let mr_mask = (1 lsl t.mr_ways_) - 1 in
  Array.iteri
    (fun w r ->
      Hierarchy.set_clos hier ~core:w
        (match r with Cr -> full | Mr -> mr_mask land full))
    t.current;
  Hierarchy.set_clos hier
    ~core:(Config.manager_core t.backend.Backend.config)
    full

let set_mr_ways t ways =
  let max_ways = Hierarchy.llc_ways t.backend.Backend.hier in
  if ways < 1 || ways > max_ways then invalid_arg "Mutps.set_mr_ways";
  t.mr_ways_ <- ways;
  apply_clos t

let set_split t ~ncr =
  let cores = t.backend.Backend.config.Config.cores in
  if ncr < 1 || ncr >= cores then invalid_arg "Mutps.set_split";
  if ncr <> t.target_ncr then begin
    t.target_ncr <- ncr;
    Array.iteri (fun w _ -> t.desired.(w) <- (if w < ncr then Cr else Mr)) t.desired;
    recompute_push_list t;
    (* arm the transport switch at the predefined slot *)
    t.transport.Transport.set_workers ncr
  end

let set_hot_target t k =
  if k < 0 || k > t.backend.Backend.config.Config.hot_k then
    invalid_arg "Mutps.set_hot_target";
  t.hot_target <- k;
  t.refresh_asap <- true

let refresh_now t = t.refresh_asap <- true

(* --- CR layer (§3.2.3 FSM) --- *)

type cr_state = {
  mutable pending : Fwd.t list; (* reversed accumulation buffer *)
  mutable pending_n : int;
  mutable oldest_at : int; (* when the oldest pending fwd was enqueued *)
}

let flush_pending t env w st =
  if st.pending_n > 0 then begin
    let batch = Array.of_list (List.rev st.pending) in
    let targets = t.push_list in
    if Array.length targets > 0 && Crmr.push t.crmr env ~cr:w ~targets batch
    then begin
      st.pending <- [];
      st.pending_n <- 0;
      if Env.tracing env then
        Env.counter env ~track:"crmr.in_flight"
          ~value:(float_of_int (Crmr.in_flight t.crmr));
      true
    end
    else begin
      (* every target ring is full: the CR layer stops polling rx *)
      if Env.tracing env then
        Env.instant env ~name:"crmr.backpressure"
          ~arg:(string_of_int st.pending_n);
      false
    end
  end
  else true

let enqueue t env w st fwd =
  if st.pending_n = 0 then st.oldest_at <- Env.now env;
  st.pending <- fwd :: st.pending;
  st.pending_n <- st.pending_n + 1;
  t.forwarded <- t.forwarded + 1;
  if st.pending_n >= t.backend.Backend.config.Config.batch then
    ignore (flush_pending t env w st)

(* Serve a request entirely at the CR layer, unless its hot item is
   retired (its key was deleted): then the hit, counted where the
   simulated timeline observes it, is taken back and the caller forwards. *)
let cr_hot_get t ex env ~seq item =
  t.cr_hits <- t.cr_hits + 1;
  match Item.read_live env item with
  | Some _ as value ->
    Exec.reply ex ~seq value;
    t.responded <- t.responded + 1;
    true
  | None ->
    t.cr_hits <- t.cr_hits - 1;
    false

let cr_hot_put t ex env ~seq msg item =
  t.cr_hits <- t.cr_hits + 1;
  let value = Exec.payload ex ~seq msg in
  if Item.write_live env item value t.backend.Backend.slab then begin
    Exec.reply ex ~seq None;
    t.responded <- t.responded + 1;
    true
  end
  else begin
    t.cr_hits <- t.cr_hits - 1;
    false
  end

let cr_reap t env w =
  let progressed = ref false in
  let continue = ref true in
  while !continue do
    match Crmr.take_completed t.crmr env ~cr:w with
    | Some batch ->
      progressed := true;
      Array.iter
        (fun (fwd : Fwd.t) ->
          (* every reply the stage writes carries at least Exec.ack_bytes;
             0 is [Fwd.make]'s, so the MR layer never answered it *)
          if fwd.Fwd.resp_bytes = 0 then
            invalid_arg "Mutps.cr_reap: forward completed without a reply";
          t.transport.Transport.post_response env ~seq:fwd.Fwd.seq
            ~resp_addr:fwd.Fwd.resp_addr ~bytes:fwd.Fwd.resp_bytes
            ~value:fwd.Fwd.resp_value;
          t.responded <- t.responded + 1)
        batch
    | None -> continue := false
  done;
  !progressed

let cr_step t ex env w st =
  let cfg = t.backend.Backend.config in
  let progressed = ref (cr_reap t env w) in
  (* backpressure: with a full pending batch that will not flush (MR rings
     full), stop polling the rx queue rather than overrun the batch *)
  if st.pending_n >= cfg.Config.batch && not (flush_pending t env w st) then ()
  else begin
    match t.transport.Transport.poll env ~worker:w with
  | Some (seq, msg) ->
    progressed := true;
    Env.compute env Config.parse_cycles;
    let req = msg.Message.req in
    let key = req.Request.key in
    Tracker.record t.tracker key;
    (match req.Request.kind with
    | Request.Get | Request.Put ->
      let served =
        match Hotcache.find t.hotcache env key with
        | None -> false
        | Some item when req.Request.kind = Request.Get ->
          cr_hot_get t ex env ~seq item
        | Some item -> cr_hot_put t ex env ~seq msg item
      in
      if not served then enqueue t env w st (Fwd.make ~seq ~cr:w ~msg ~prefix:[])
    | Request.Delete ->
      (* retire the hot copy now, so the requests behind this DEL miss
         and queue up behind it instead of overtaking it at the CR layer *)
      (match Hotcache.find t.hotcache env key with
      | Some item -> Item.retire env item
      | None -> ());
      enqueue t env w st (Fwd.make ~seq ~cr:w ~msg ~prefix:[])
    | Request.Scan ->
      (* cooperative scan: copy what the cache already holds, forward the
         rest of the work (§4) *)
      let prefix =
        match Hotcache.mode t.hotcache with
        | Hotcache.Sorted ->
          let cached =
            Hotcache.cached_range t.hotcache env ~lo:key
              ~n:req.Request.scan_count
          in
          List.iter
            (fun (_, item) ->
              let v = Item.read env item in
              ignore (Bytes.length v))
            cached;
          cached
        | Hotcache.Probed -> []
      in
      enqueue t env w st (Fwd.make ~seq ~cr:w ~msg ~prefix))
  | None ->
    (* one-shot poll found nothing: flush a partial batch only once it has
       waited long enough — keeping batches full is what amortizes the
       CR-MR queue and the MR layer's prefetch overlap *)
    if
      st.pending_n > 0
      && Env.now env - st.oldest_at >= Config.flush_cycles
      && flush_pending t env w st
    then progressed := true
  end;
  !progressed

(* --- MR layer (§3.3) --- *)

(* The MR layer's [respond] is §3.4's tail-pointer piggyback: an MR
   thread never posts to the NIC.  It writes each response into its own
   response buffer, so the CR layer's buffer lines are never dirtied
   cross-core, and records its place in the forwarded request; the CR
   thread posts it after reaping the completed batch. *)
type mr_state = { mutable fwds : Fwd.t array; mutable at : int }

let record mr _env ~seq:_ ~resp_addr ~bytes ~value =
  let fwd = mr.fwds.(mr.at) in
  fwd.Fwd.resp_addr <- resp_addr;
  fwd.Fwd.resp_bytes <- bytes;
  fwd.Fwd.resp_value <- value

let mr_step t ex mr env w =
  match Crmr.next_batch t.crmr env ~mr:w ~sources:t.cr_list with
  | None -> false
  | Some (cr, batch) ->
    let n = Array.length batch in
    for i = 0 to n - 1 do
      let fwd = batch.(i) in
      Exec.add ex ~seq:fwd.Fwd.seq ~prefix:fwd.Fwd.prefix fwd.Fwd.msg
    done;
    Exec.locate ex;
    mr.fwds <- batch;
    for i = 0 to n - 1 do
      mr.at <- i;
      Exec.execute ex i
    done;
    (* tail-pointer advance = completion signal (§3.4) *)
    Crmr.complete t.crmr env ~cr ~mr:w;
    t.mr_ops <- t.mr_ops + n;
    t.mr_scans <- t.mr_scans + 1;
    true

(* --- role transitions (§3.5 thread reassignment) --- *)

(* A role switch is only considered right after a step that made no
   progress: for a departing CR thread that means its rx slots below the
   switch point are consumed (the transport returns None past it), nothing
   is pending, and every forwarded batch has come back and been answered;
   a joining CR thread additionally waits for the transport switch to
   commit (all old CR threads crossed the predefined slot) and for its
   consumer rings to drain.  Crucially the check itself never consumes a
   message. *)
let try_switch_when_idle t env w st =
  match (t.current.(w), t.desired.(w)) with
  | Cr, Mr ->
    if
      st.pending_n = 0
      && (not (cr_reap t env w))
      && Crmr.cr_drained t.crmr ~cr:w
    then begin
      t.current.(w) <- Mr;
      recompute_lists t;
      apply_clos t;
      Env.instant env ~name:"role.switch" ~arg:"cr->mr"
    end
  | Mr, Cr ->
    if
      (not (t.transport.Transport.reconfig_in_progress ()))
      && Crmr.mr_drained t.crmr ~mr:w
    then begin
      t.current.(w) <- Cr;
      recompute_lists t;
      apply_clos t;
      Env.instant env ~name:"role.switch" ~arg:"mr->cr"
    end
  | Cr, Cr | Mr, Mr -> ()

(* One step of worker [w] over [env], by its current role; a step that
   made no progress is followed by the role-switch attempt (§3.5). *)
let stepper t w env =
  let tr = t.transport in
  (* one execution stage per role: the CR layer's hot hits answer through
     the transport, the MR layer's batches through [record] *)
  let cr_ex =
    Exec.create t.backend tr ~lock:Exec.Locked ~worker:w
      ~respond:tr.Transport.post_response env
  in
  let mr = { fwds = [||]; at = 0 } in
  let mr_ex =
    Exec.create ~hot:t.hotcache t.backend tr ~lock:Exec.Locked ~worker:w
      ~respond:(record mr) env
  in
  let st = { pending = []; pending_n = 0; oldest_at = 0 } in
  fun () ->
    let progressed =
      match t.current.(w) with
      | Cr -> cr_step t cr_ex env w st
      | Mr -> mr_step t mr_ex mr env w
    in
    if (not progressed) && t.desired.(w) <> t.current.(w) then
      try_switch_when_idle t env w st;
    progressed

let worker_body t w ctx =
  let env = Env.make ~ctx ~hier:t.backend.Backend.hier ~core:w in
  let step = stepper t w env in
  (* hoisted: the empty-poll path runs millions of times per worker and
     must not allocate a fresh idle thunk each iteration *)
  let idle_thunk () = Env.compute env Config.poll_idle_cycles in
  while true do
    let before = Simthread.now ctx in
    if step () then begin
      Simthread.commit ctx;
      let spent = Simthread.now ctx - before in
      match t.current.(w) with
      | Cr -> t.cr_busy <- t.cr_busy + spent
      | Mr -> t.mr_busy <- t.mr_busy + spent
    end
    else begin
      (* attribute the poll backoff to an "idle" site so the profile
         separates wasted polls from useful work *)
      Env.tagged env "idle" idle_thunk;
      Simthread.commit ctx
    end
  done

(* --- manager thread (§3.2.2 hot-set refresh) --- *)

let refresh_hotset t env =
  Env.tagged env "Mutps.refresh_hotset" @@ fun () ->
  let hot_obj = Hotcache.sync_obj t.hotcache env in
  let k = min t.hot_target t.backend.Backend.config.Config.hot_k in
  if k = 0 then begin
    Env.acquire env hot_obj;
    Hotcache.publish t.hotcache [||];
    Env.release env hot_obj
  end
  else begin
    let top = Tracker.rebuild t.tracker ~k in
    let entries = ref [] in
    Array.iter
      (fun (key, _count) ->
        match t.backend.Backend.index.Index.lookup env key with
        | Some item -> entries := (key, item) :: !entries
        | None -> ())
      top;
    let entries = Array.of_list (List.rev !entries) in
    (* building the new cache writes its region; bracket the rewrite with
       the cache's sync object so lookups in flight before this slice are
       happens-before ordered with it (the epoch switch of §3.2.2) *)
    Env.acquire env hot_obj;
    Env.store env ~addr:(Hotcache.region_base t.hotcache)
      ~size:(max 64 (Array.length entries * 16));
    Hotcache.publish t.hotcache entries;
    Env.release env hot_obj;
    if Env.tracing env then
      Env.instant env ~name:"hotset.refresh"
        ~arg:(string_of_int (Array.length entries))
  end

let manager_body t ctx =
  let cfg = t.backend.Backend.config in
  let env =
    Env.make ~ctx ~hier:t.backend.Backend.hier ~core:(Config.manager_core cfg)
  in
  let slice = max 1 (cfg.Config.refresh_cycles / 32) in
  let elapsed = ref 0 in
  while true do
    Simthread.delay ctx slice;
    elapsed := !elapsed + slice;
    if t.refresh_asap || !elapsed >= cfg.Config.refresh_cycles then begin
      t.refresh_asap <- false;
      elapsed := 0;
      refresh_hotset t env
    end
  done

let start t =
  apply_clos t;
  for w = 0 to t.backend.Backend.config.Config.cores - 1 do
    Simthread.spawn t.backend.Backend.engine
      ~name:(Printf.sprintf "mutps-%d" w)
      (worker_body t w)
  done;
  Simthread.spawn t.backend.Backend.engine ~name:"mutps-manager"
    (manager_body t)
