(** Run-to-completion worker pool: each worker handles its requests start
    to finish (poll → parse → index → data → respond).  Batching and
    prefetching are enabled (the worker drains up to [batch] requests and
    indexes them together), matching the paper's BaseKV ("optimizations
    such as reconfigurable RPC, batching, and prefetching are enabled").

    Parameterized by transport and lock mode, this pool is both BaseKV
    (reconfigurable RPC + share-everything locking) and eRPC-KV (eRPC +
    share-nothing exclusive writes).  The execution stage is {!Exec}'s,
    the one μTPS's MR layer runs; a worker responds through the
    transport. *)

module Env = Mutps_mem.Env
module Simthread = Mutps_sim.Simthread
module Transport = Mutps_net.Transport

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

let start backend tr ~lock ~workers =
  let stats = Array.init workers (fun _ -> make_stats ()) in
  for w = 0 to workers - 1 do
    Simthread.spawn backend.Backend.engine
      ~name:(Printf.sprintf "rtc-%d" w)
      (worker_body backend tr ~lock ~worker:w stats.(w))
  done;
  stats
