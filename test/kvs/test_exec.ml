(* Operation-execution level tests: the execution stage, the RTC worker loop,
   CR-MR backpressure, deletes, and transport edge cases driven through
   real (small) systems. *)

open Mutps_sim
open Mutps_kvs
module Client = Mutps_net.Client
module Transport = Mutps_net.Transport
module Message = Mutps_net.Message
module Request = Mutps_queue.Request
module Opgen = Mutps_workload.Opgen
module Ycsb = Mutps_workload.Ycsb
module Item = Mutps_store.Item
module Index = Mutps_index.Index_intf
module Env = Mutps_mem.Env

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let keyspace = 2_000
let value_size = 64

let small_config ?(cores = 4) ?(index = Config.Tree) () =
  let c = Config.default ~cores ~index ~capacity:keyspace () in
  { c with Config.hot_k = 128; refresh_cycles = 2_000_000; sample_every = 4 }

(* Exactly-once accounting: stop the clients, let what is in flight land
   within a bounded window, then every request must have been answered,
   and only once. *)
let check_exactly_once engine clients =
  Client.stop clients;
  Engine.run engine ~until:(Engine.now engine + 5_000_000);
  check_int "nothing outstanding" 0 (Client.outstanding clients);
  check_int "every request answered once" (Client.sent clients)
    (Client.completed clients)

(* ------------------------------------------------------------------ *)
(* The execution stage through a raw transport                        *)
(* ------------------------------------------------------------------ *)

(* A little fixture: backend + reconfigurable RPC with one worker, and a
   hand-rolled message injector. *)
type fixture = {
  backend : Backend.t;
  tr : Transport.t;
  mutable next_id : int;
  responses : (int, int * bytes option) Hashtbl.t; (* id -> bytes, value *)
}

let mk_fixture ?(index = Config.Tree) () =
  let backend = Backend.create (small_config ~index ()) in
  Backend.populate backend ~keyspace ~value_size;
  let rpc =
    Mutps_net.Reconf_rpc.create ~engine:backend.Backend.engine
      ~hier:backend.Backend.hier ~layout:backend.Backend.layout
      ~link:backend.Backend.link ~max_workers:1 ~workers:1 ()
  in
  let tr = Mutps_net.Reconf_rpc.transport rpc in
  let f = { backend; tr; next_id = 0; responses = Hashtbl.create 16 } in
  tr.Transport.set_on_response (fun msg value ->
      Hashtbl.replace f.responses msg.Message.id
        ((match value with Some v -> Bytes.length v | None -> 0), value));
  f

let inject f req value =
  let id = f.next_id in
  f.next_id <- id + 1;
  f.tr.Transport.deliver
    { Message.id; client = 0; sent_at = 0; target = -1; req; value };
  id

(* One worker running the execution stage on batches of one request. *)
let drain f ~ops =
  Simthread.spawn f.backend.Backend.engine (fun ctx ->
      let env = Env.make ~ctx ~hier:f.backend.Backend.hier ~core:0 in
      let ex =
        Exec.create f.backend f.tr ~lock:Exec.Locked ~worker:0
          ~respond:f.tr.Transport.post_response env
      in
      for _ = 1 to ops do
        match f.tr.Transport.poll env ~worker:0 with
        | Some (seq, msg) ->
          Exec.add ex ~seq ~prefix:[] msg;
          Exec.locate ex;
          Exec.execute ex 0
        | None -> Simthread.delay ctx 100
      done);
  Engine.run_all f.backend.Backend.engine

let test_exec_get_hit_and_miss () =
  let f = mk_fixture () in
  let hit = inject f (Request.get ~key:5L ~buf:0) None in
  let miss = inject f (Request.get ~key:999_999L ~buf:0) None in
  drain f ~ops:2;
  (match Hashtbl.find_opt f.responses hit with
  | Some (_, Some v) ->
    check_bool "hit returns stored payload" true
      (Bytes.equal v (Client.payload ~key:5L ~size:value_size))
  | _ -> Alcotest.fail "no value for present key");
  (match Hashtbl.find_opt f.responses miss with
  | Some (_, None) -> ()
  | _ -> Alcotest.fail "missing key must answer with no value")

let test_exec_put_insert_and_update () =
  let f = mk_fixture () in
  (* update an existing key, then insert a brand new one *)
  let v1 = Bytes.make 32 'u' in
  let id1 =
    inject f (Request.put ~key:7L ~size:32 ~buf:0) (Some v1)
  in
  let fresh_key = Int64.of_int (keyspace + 50) in
  let v2 = Bytes.make 16 'n' in
  let id2 = inject f (Request.put ~key:fresh_key ~size:16 ~buf:0) (Some v2) in
  let g1 = inject f (Request.get ~key:7L ~buf:0) None in
  let g2 = inject f (Request.get ~key:fresh_key ~buf:0) None in
  drain f ~ops:4;
  check_bool "update acked" true (Hashtbl.mem f.responses id1);
  check_bool "insert acked" true (Hashtbl.mem f.responses id2);
  (match Hashtbl.find_opt f.responses g1 with
  | Some (_, Some v) -> check_bool "updated value" true (Bytes.equal v v1)
  | _ -> Alcotest.fail "updated key unreadable");
  (match Hashtbl.find_opt f.responses g2 with
  | Some (_, Some v) -> check_bool "inserted value" true (Bytes.equal v v2)
  | _ -> Alcotest.fail "inserted key unreadable")

let test_exec_delete_then_get () =
  let f = mk_fixture () in
  let d = inject f (Request.delete ~key:3L ~buf:0) None in
  let g = inject f (Request.get ~key:3L ~buf:0) None in
  drain f ~ops:2;
  check_bool "delete acked" true (Hashtbl.mem f.responses d);
  (match Hashtbl.find_opt f.responses g with
  | Some (_, None) -> ()
  | _ -> Alcotest.fail "deleted key still served")

let test_exec_scan_bytes_scale_with_count () =
  let f = mk_fixture () in
  let s1 = inject f (Request.scan ~key:0L ~count:5 ~buf:0) None in
  let s2 = inject f (Request.scan ~key:0L ~count:50 ~buf:0) None in
  drain f ~ops:2;
  match (Hashtbl.find_opt f.responses s1, Hashtbl.find_opt f.responses s2) with
  | Some _, Some _ ->
    (* responses are size-only for scans; both must have been answered *)
    ()
  | _ -> Alcotest.fail "scan unanswered"

let test_exec_scan_on_hash_rejected () =
  let f = mk_fixture ~index:Config.Hash () in
  let s = inject f (Request.scan ~key:0L ~count:5 ~buf:0) None in
  (* the hash index raises; the drain thread must propagate it *)
  (try
     drain f ~ops:1;
     ignore s;
     Alcotest.fail "expected range rejection"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* The steps a native shard drives, without sockets                    *)
(* ------------------------------------------------------------------ *)

(* A queue-backed transport, shaped like the native server's: a message's
   seq is its id, and a reply lands in [answers]. *)
type queue_tr = {
  rx : (int * Message.t) Queue.t;
  answers : (int, bytes option) Hashtbl.t;
  mutable inflight : int;
}

let queue_transport () =
  let q = { rx = Queue.create (); answers = Hashtbl.create 16; inflight = 0 } in
  let tr =
    {
      Transport.deliver =
        (fun msg ->
          Queue.push (msg.Message.id, msg) q.rx;
          q.inflight <- q.inflight + 1);
      poll = (fun _env ~worker:_ -> Queue.take_opt q.rx);
      slot_addr = (fun _ -> 0);
      resp_alloc = (fun ~worker:_ ~bytes:_ -> 0);
      post_response =
        (fun _env ~seq ~resp_addr:_ ~bytes:_ ~value ->
          if Hashtbl.mem q.answers seq then
            Alcotest.fail (Printf.sprintf "request %d answered twice" seq);
          Hashtbl.replace q.answers seq value;
          q.inflight <- q.inflight - 1);
      set_on_response = (fun _ -> ());
      set_workers = (fun _ -> ());
      reconfig_in_progress = (fun () -> false);
    }
  in
  (q, tr)

let send_get tr ~id key =
  tr.Transport.deliver
    { Message.id; client = 0; sent_at = 0; target = -1;
      req = Request.get ~key ~buf:0; value = None }

let freerun (backend : Backend.t) core =
  Env.make_freerun
    ~ctx:(Simthread.detached backend.Backend.engine)
    ~hier:backend.Backend.hier ~core

(* A 2-core μTPS driven the way a native shard drives it: rounds of the
   CR step then the MR step, until nothing is in flight.  A forward takes
   two rounds (the MR executes it in the first, the CR reaps and answers
   it in the second), a hot hit one. *)
let test_mutps_rounds_per_op () =
  let config =
    { (Config.default ~cores:2 ~capacity:keyspace ()) with
      Config.batch = 1; hot_k = 128; sample_every = 1 }
  in
  let q, tr = queue_transport () in
  let kv = Mutps.create ~transport:tr config in
  let b = Mutps.backend kv in
  Backend.populate b ~keyspace ~value_size;
  let cr = Mutps.stepper kv 0 (freerun b 0)
  and mr = Mutps.stepper kv 1 (freerun b 1) in
  let next_id = ref 0 in
  let get key =
    let id = !next_id in
    incr next_id;
    send_get tr ~id key;
    let rounds = ref 0 in
    while q.inflight > 0 && !rounds < 10 do
      ignore (cr ());
      ignore (mr ());
      incr rounds
    done;
    match Hashtbl.find_opt q.answers id with
    | Some (Some v) ->
      check_bool "preloaded payload" true
        (Bytes.equal v (Client.payload ~key ~size:value_size));
      !rounds
    | Some None | None -> Alcotest.fail "GET of a preloaded key unanswered"
  in
  check_int "cold GET: two rounds" 2 (get 5L);
  check_int "forwarded" 1 (Mutps.forwarded kv);
  Mutps.refresh_hotset kv (freerun b (Config.manager_core config));
  check_int "hot GET: one round" 1 (get 5L);
  check_int "answered at the CR layer" 1 (Mutps.cr_hits kv);
  check_int "cold key: still two rounds" 2 (get 6L);
  check_int "every reply posted" 3 (Mutps.responded kv)

(* After [set_split] grows the CR layer, a CR thread forwards only to the
   threads that stay in the MR role: the thread on its way to the CR role
   gets no new batch, so every forward is answered without it, and it
   switches at its first idle step. *)
let test_mutps_split_retargets_forwards () =
  let config =
    { (Config.default ~cores:3 ~capacity:keyspace ()) with Config.batch = 1 }
  in
  let q, tr = queue_transport () in
  let kv = Mutps.create ~ncr:1 ~transport:tr config in
  let b = Mutps.backend kv in
  Backend.populate b ~keyspace ~value_size;
  let step w = Mutps.stepper kv w (freerun b w) in
  let cr = step 0 and joining = step 1 and mr = step 2 in
  Mutps.set_split kv ~ncr:2;
  for id = 0 to 3 do
    send_get tr ~id (Int64.of_int id);
    let rounds = ref 0 in
    while q.inflight > 0 && !rounds < 10 do
      ignore (cr ());
      ignore (mr ());
      incr rounds
    done;
    check_int (Printf.sprintf "GET %d answered without worker 1" id) 0
      q.inflight
  done;
  check_int "all forwarded" 4 (Mutps.forwarded kv);
  check_bool "worker 1 idle" false (joining ());
  check_bool "worker 1 switched" true (Mutps.reconfig_settled kv)

(* One RTC step polls up to a batch and answers all of it; an empty poll
   returns [false]. *)
let test_rtc_step_answers_batch () =
  let config = Config.default ~cores:1 ~capacity:keyspace () in
  let backend = Backend.create config in
  Backend.populate backend ~keyspace ~value_size;
  let q, tr = queue_transport () in
  let stats = Rtc.make_stats () in
  let step =
    Rtc.stepper backend tr ~lock:Exec.Locked ~worker:0 stats (freerun backend 0)
  in
  let batch = config.Config.batch in
  for id = 0 to batch + 1 do
    send_get tr ~id (Int64.of_int id)
  done;
  check_bool "first step" true (step ());
  check_int "a whole batch answered" batch (Hashtbl.length q.answers);
  check_bool "second step" true (step ());
  check_int "the rest answered" (batch + 2) (Hashtbl.length q.answers);
  check_bool "empty poll" false (step ());
  check_int "two batches" 2 stats.Rtc.batches;
  for id = 0 to batch + 1 do
    let key = Int64.of_int id in
    match Hashtbl.find_opt q.answers id with
    | Some (Some v) ->
      check_bool "preloaded payload" true
        (Bytes.equal v (Client.payload ~key ~size:value_size))
    | Some None | None -> Alcotest.fail "GET of a preloaded key unanswered"
  done

(* ------------------------------------------------------------------ *)
(* RTC loop behaviour through BaseKV                                   *)
(* ------------------------------------------------------------------ *)

let run_basekv ~spec ~horizon ~clients:n =
  let kv = Rtc.basekv (small_config ()) in
  Backend.populate (Rtc.backend kv) ~keyspace ~value_size;
  Rtc.start kv;
  let b = Rtc.backend kv in
  let clients =
    Client.start ~engine:b.Backend.engine ~link:b.Backend.link
      ~transport:(Rtc.transport kv)
      { Client.clients = n; window = 2; spec; seed = 3;
        dispatch = Client.uniform_dispatch }
  in
  Engine.run b.Backend.engine ~until:horizon;
  (kv, clients)

let test_rtc_mixed_batch_with_deletes () =
  (* a mix including deletes: remainder of the mix is deletes *)
  let spec =
    {
      Opgen.name = "mixed";
      keyspace;
      key_dist = Opgen.Uniform;
      size_dist = Opgen.Fixed value_size;
      mix = { Opgen.get = 0.5; put = 0.3; scan = 0.0 };
      scan_len = 1;
    }
  in
  let kv, clients = run_basekv ~spec ~horizon:15_000_000 ~clients:4 in
  check_bool "mixed workload progresses" true (Client.completed clients > 300);
  check_bool "ops counted" true (Rtc.ops_processed kv > 300);
  check_exactly_once (Rtc.backend kv).Backend.engine clients

let test_rtc_batches_amortize () =
  (* ops processed per batch should exceed 1 under load *)
  let spec = Ycsb.c ~keyspace ~value_size () in
  let kv, _ = run_basekv ~spec ~horizon:15_000_000 ~clients:16 in
  check_bool "multiple ops per batch" true
    (Rtc.ops_processed kv > 0)

(* ------------------------------------------------------------------ *)
(* μTPS backpressure and small-ring survival                           *)
(* ------------------------------------------------------------------ *)

let test_mutps_tiny_rings_no_crash () =
  (* tiny CR-MR rings force constant flush failures: the system must stay
     correct (backpressure) rather than crash or lose requests *)
  let config = { (small_config ()) with Config.crmr_slots = 1; batch = 2 } in
  let kv = Mutps.create ~ncr:1 config in
  Backend.populate (Mutps.backend kv) ~keyspace ~value_size;
  Mutps.start kv;
  let b = Mutps.backend kv in
  let spec = Ycsb.get_only_uniform ~keyspace ~value_size () in
  let clients =
    Client.start ~engine:b.Backend.engine ~link:b.Backend.link
      ~transport:(Mutps.transport kv)
      { Client.clients = 16; window = 4; spec; seed = 3;
        dispatch = Client.uniform_dispatch }
  in
  Engine.run b.Backend.engine ~until:30_000_000;
  let done_ = Client.completed clients in
  check_bool
    (Printf.sprintf "progress under tiny rings (%d)" done_)
    true (done_ > 200);
  check_exactly_once b.Backend.engine clients

let test_mutps_batch_one () =
  (* batch size 1 is the degenerate-but-legal configuration of Figure 12 *)
  let config = { (small_config ()) with Config.batch = 1 } in
  let kv = Mutps.create config in
  Backend.populate (Mutps.backend kv) ~keyspace ~value_size;
  Mutps.start kv;
  let b = Mutps.backend kv in
  let spec = Ycsb.a ~keyspace ~value_size () in
  let clients =
    Client.start ~engine:b.Backend.engine ~link:b.Backend.link
      ~transport:(Mutps.transport kv)
      { Client.clients = 8; window = 2; spec; seed = 3;
        dispatch = Client.uniform_dispatch }
  in
  Engine.run b.Backend.engine ~until:20_000_000;
  check_bool "batch=1 works" true (Client.completed clients > 300)

let test_mutps_delete_via_layers () =
  (* deletes forward through the CR-MR queue and update the index *)
  let kv = Mutps.create (small_config ()) in
  Backend.populate (Mutps.backend kv) ~keyspace ~value_size;
  Mutps.start kv;
  let b = Mutps.backend kv in
  let spec =
    {
      Opgen.name = "del-mix";
      keyspace;
      key_dist = Opgen.Uniform;
      size_dist = Opgen.Fixed value_size;
      mix = { Opgen.get = 0.4; put = 0.4; scan = 0.0 };
      scan_len = 1;
    }
  in
  let clients =
    Client.start ~engine:b.Backend.engine ~link:b.Backend.link
      ~transport:(Mutps.transport kv)
      { Client.clients = 8; window = 2; spec; seed = 3;
        dispatch = Client.uniform_dispatch }
  in
  Engine.run b.Backend.engine ~until:20_000_000;
  check_bool "delete mix progresses" true (Client.completed clients > 300);
  (* some keys must actually have disappeared *)
  check_bool "index shrank" true
    (b.Backend.index.Index.count () < keyspace);
  check_exactly_once b.Backend.engine clients

(* A key in the CR hot set is deleted: the DEL must win over the cached
   item, and a SET after the DEL must still be there once the next
   refresh has rebuilt the hot set. *)
let test_mutps_delete_hot_key () =
  let config =
    { (small_config ~cores:2 ()) with Config.refresh_cycles = 2_000_000; sample_every = 1 }
  in
  let kv = Mutps.create config in
  let b = Mutps.backend kv in
  Backend.populate b ~keyspace ~value_size;
  Mutps.start kv;
  let tr = Mutps.transport kv in
  let replies = Hashtbl.create 64 in
  tr.Transport.set_on_response (fun msg value ->
      Hashtbl.replace replies msg.Message.id value);
  let engine = b.Backend.engine in
  let next_id = ref 0 in
  let call req value =
    let id = !next_id in
    incr next_id;
    tr.Transport.deliver
      { Message.id; client = 0; sent_at = Engine.now engine; target = -1; req; value };
    let guard = ref 0 in
    while (not (Hashtbl.mem replies id)) && !guard < 1_000 do
      Engine.run engine ~until:(Engine.now engine + 10_000);
      incr guard
    done;
    match Hashtbl.find_opt replies id with
    | Some reply -> reply
    | None -> Alcotest.fail (Printf.sprintf "request %d never answered" id)
  in
  let key = 5L in
  let value = Alcotest.(option bytes) in
  (* GET the key until the CR layer answers it: a refresh has made it hot,
     and every answer on the way must be [want] *)
  let get_until_hot want =
    let hits = Mutps.cr_hits kv and n = ref 0 in
    while Mutps.cr_hits kv = hits && !n < 2_000 do
      Alcotest.check value "GET" want (call (Request.get ~key ~buf:0) None);
      incr n
    done;
    check_bool "answered from the hot set" true (Mutps.cr_hits kv > hits)
  in
  get_until_hot (Some (Client.payload ~key ~size:value_size));
  ignore (call (Request.delete ~key ~buf:0) None);
  Alcotest.check value "GET after DEL" None (call (Request.get ~key ~buf:0) None);
  let v = Bytes.of_string "NEWVALUE" in
  ignore (call (Request.put ~key ~size:(Bytes.length v) ~buf:0) (Some v));
  get_until_hot (Some v)

(* ------------------------------------------------------------------ *)
(* eRPC-KV share-nothing invariants                                    *)
(* ------------------------------------------------------------------ *)

let test_erpckv_exclusive_no_contention () =
  (* every item is written only by its shard owner: no item may ever
     record a contended acquire *)
  let kv = Rtc.erpckv (small_config ()) in
  Backend.populate (Rtc.backend kv) ~keyspace ~value_size;
  Rtc.start kv;
  let b = Rtc.backend kv in
  let spec = Ycsb.put_only ~keyspace ~value_size () in
  let clients =
    Client.start ~engine:b.Backend.engine ~link:b.Backend.link
      ~transport:(Rtc.transport kv)
      { Client.clients = 16; window = 2; spec; seed = 3;
        dispatch = Rtc.dispatch kv }
  in
  Engine.run b.Backend.engine ~until:20_000_000;
  check_bool "puts progress" true (Client.completed clients > 300);
  (* sample some hot items and check they never saw lock contention *)
  let e2 = Engine.create () in
  Simthread.spawn e2 (fun ctx ->
      let env = Env.make ~ctx ~hier:b.Backend.hier ~core:0 in
      Array.iter
        (fun key ->
          match b.Backend.index.Index.lookup env key with
          | Some item ->
            check_int "no contended acquires in SN" 0
              (Item.contended_acquires item)
          | None -> ())
        (Opgen.hottest_keys ~keyspace 20));
  Engine.run_all e2


(* ------------------------------------------------------------------ *)
(* DLB hardware-queue ablation (the paper's §6 future work)            *)
(* ------------------------------------------------------------------ *)

let mutps_throughput ~dlb =
  let config = { (small_config ~cores:6 ()) with Config.dlb; hot_k = 1 } in
  let kv = Mutps.create ~ncr:2 config in
  Backend.populate (Mutps.backend kv) ~keyspace ~value_size;
  Mutps.start kv;
  Mutps.set_hot_target kv 0;
  let b = Mutps.backend kv in
  let spec = Ycsb.get_only_uniform ~keyspace ~value_size () in
  let clients =
    Client.start ~engine:b.Backend.engine ~link:b.Backend.link
      ~transport:(Mutps.transport kv)
      { Client.clients = 24; window = 4; spec; seed = 3;
        dispatch = Client.uniform_dispatch }
  in
  Engine.run b.Backend.engine ~until:25_000_000;
  Client.completed clients

let test_dlb_correct_and_not_slower () =
  let sw = mutps_throughput ~dlb:false in
  let hw = mutps_throughput ~dlb:true in
  check_bool "software queue progresses" true (sw > 300);
  check_bool "hardware queue progresses" true (hw > 300);
  (* the offloaded queue must not lose to the software rings by much —
     the paper expects DLB to help *)
  check_bool
    (Printf.sprintf "dlb (%d) within range of software (%d)" hw sw)
    true
    (float_of_int hw >= 0.9 *. float_of_int sw)

let () =
  Alcotest.run "exec"
    [
      ( "exec",
        [
          Alcotest.test_case "get hit/miss" `Quick test_exec_get_hit_and_miss;
          Alcotest.test_case "put insert/update" `Quick test_exec_put_insert_and_update;
          Alcotest.test_case "delete then get" `Quick test_exec_delete_then_get;
          Alcotest.test_case "scan sizes" `Quick test_exec_scan_bytes_scale_with_count;
          Alcotest.test_case "scan on hash rejected" `Quick test_exec_scan_on_hash_rejected;
        ] );
      ( "rtc",
        [
          Alcotest.test_case "mixed batch with deletes" `Quick test_rtc_mixed_batch_with_deletes;
          Alcotest.test_case "batches amortize" `Quick test_rtc_batches_amortize;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "tiny rings no crash" `Quick test_mutps_tiny_rings_no_crash;
          Alcotest.test_case "batch one" `Quick test_mutps_batch_one;
          Alcotest.test_case "delete via layers" `Quick test_mutps_delete_via_layers;
        ] );
      ( "dlb",
        [
          Alcotest.test_case "correct and competitive" `Quick test_dlb_correct_and_not_slower;
        ] );
      ( "erpckv",
        [
          Alcotest.test_case "exclusive no contention" `Quick test_erpckv_exclusive_no_contention;
        ] );
      ( "delete",
        [ Alcotest.test_case "hot key" `Quick test_mutps_delete_hot_key ] );
      ( "steps",
        [
          Alcotest.test_case "mutps rounds per op" `Quick test_mutps_rounds_per_op;
          Alcotest.test_case "rtc step answers a batch" `Quick test_rtc_step_answers_batch;
          Alcotest.test_case "split retargets forwards" `Quick
            test_mutps_split_retargets_forwards;
        ] );
    ]
