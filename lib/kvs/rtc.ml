(** Run-to-completion worker pool: each worker handles its requests start
    to finish (poll → parse → index → data → respond).  Batching and
    prefetching are enabled (the worker drains up to [batch] requests and
    indexes them together), matching the paper's BaseKV ("optimizations
    such as reconfigurable RPC, batching, and prefetching are enabled").

    Its two constructors differ only in transport, lock mode and client
    dispatch: BaseKV (reconfigurable RPC + share-everything locking) and
    eRPC-KV (eRPC + share-nothing exclusive writes, key mod n).  The
    execution stage is {!Exec}'s, the one μTPS's MR layer runs; a worker
    responds through the transport. *)

module Env = Mutps_mem.Env
module Simthread = Mutps_sim.Simthread
module Transport = Mutps_net.Transport
module Reconf_rpc = Mutps_net.Reconf_rpc
module Erpc = Mutps_net.Erpc
module Client = Mutps_net.Client

type stats = { mutable ops : int; mutable batches : int }

let make_stats () = { ops = 0; batches = 0 }

let stepper (backend : Backend.t) (tr : Transport.t) ~lock ~worker
    (stats : stats) env =
  let cfg = backend.Backend.config in
  let ex =
    Exec.create backend tr ~lock ~worker ~respond:tr.Transport.post_response env
  in
  fun () ->
    (* drain up to a batch of requests from our slots *)
    let n = ref 0 in
    let continue = ref true in
    while !continue && !n < cfg.Config.batch do
      match tr.Transport.poll env ~worker with
      | Some (seq, msg) ->
        Env.compute env (Config.parse_cycles + Config.rtc_extra_cycles);
        Exec.add ex ~seq ~prefix:[] msg;
        incr n
      | None -> continue := false
    done;
    if !n = 0 then false
    else begin
      stats.batches <- stats.batches + 1;
      stats.ops <- stats.ops + !n;
      Exec.locate ex;
      for i = 0 to !n - 1 do
        Exec.execute ex i
      done;
      true
    end

let worker_body (backend : Backend.t) tr ~lock ~worker stats ctx =
  let env = Env.make ~ctx ~hier:backend.Backend.hier ~core:worker in
  let step = stepper backend tr ~lock ~worker stats env in
  while true do
    if step () then Simthread.commit ctx
    else Simthread.delay ctx Config.poll_idle_cycles
  done

type t = {
  backend : Backend.t;
  transport : Transport.t;
  lock : Exec.lock_mode;
  dispatch : Mutps_workload.Opgen.op -> int;
  mutable stats : stats array;
}

let create (config : Config.t) ~lock ~dispatch rpc =
  let backend = Backend.create config in
  { backend; transport = rpc backend; lock; dispatch; stats = [||] }

let basekv (config : Config.t) =
  let cores = config.Config.cores in
  create config ~lock:Exec.Locked ~dispatch:Client.uniform_dispatch
    (fun (b : Backend.t) ->
      Reconf_rpc.transport
        (Reconf_rpc.create ~engine:b.Backend.engine ~hier:b.Backend.hier
           ~layout:b.Backend.layout ~link:b.Backend.link ~max_workers:cores
           ~workers:cores ()))

let erpckv (config : Config.t) =
  let cores = config.Config.cores in
  create config ~lock:Exec.Exclusive
    ~dispatch:(Client.mod_key_dispatch ~workers:cores) (fun (b : Backend.t) ->
      Erpc.transport
        (Erpc.create ~engine:b.Backend.engine ~hier:b.Backend.hier
           ~layout:b.Backend.layout ~link:b.Backend.link ~workers:cores ()))

let backend t = t.backend
let transport t = t.transport
let dispatch t = t.dispatch

let start t =
  let workers = t.backend.Backend.config.Config.cores in
  t.stats <- Array.init workers (fun _ -> make_stats ());
  for w = 0 to workers - 1 do
    Simthread.spawn t.backend.Backend.engine
      ~name:(Printf.sprintf "rtc-%d" w)
      (worker_body t.backend t.transport ~lock:t.lock ~worker:w t.stats.(w))
  done

let ops_processed t = Array.fold_left (fun acc s -> acc + s.ops) 0 t.stats
