open Mutps_sim
open Mutps_mem
open Mutps_net
module Request = Mutps_queue.Request

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Link                                                                *)
(* ------------------------------------------------------------------ *)

let test_link_rtt_and_serialization () =
  let link = Link.create () in
  let c = Link.config link in
  let a = Link.rx_arrival link ~sent_at:0 ~bytes:16 in
  check_int "first msg: rtt/2 + gap + bytes"
    ((c.Link.rtt / 2) + c.Link.msg_gap + 2)
    a;
  (* a second message sent at the same time queues behind the first *)
  let b = Link.rx_arrival link ~sent_at:0 ~bytes:16 in
  check_bool "second serializes after first" true (b > a);
  check_int "rx count" 2 (Link.rx_messages link)

let test_link_bandwidth_dominates_large () =
  let link = Link.create () in
  let c = Link.config link in
  let small = Link.rx_arrival link ~sent_at:0 ~bytes:16 in
  let link2 = Link.create () in
  let big = Link.rx_arrival link2 ~sent_at:0 ~bytes:100_000 in
  check_bool "big message takes much longer" true
    (big - small > int_of_float (90_000.0 *. c.Link.cycles_per_byte))

let test_link_directions_independent () =
  let link = Link.create () in
  (* saturate rx; tx must be unaffected *)
  for _ = 1 to 100 do
    ignore (Link.rx_arrival link ~sent_at:0 ~bytes:1000)
  done;
  let c = Link.config link in
  let t = Link.tx_arrival link ~now:0 ~bytes:16 in
  check_int "tx unaffected by rx queue"
    (c.Link.msg_gap + 2 + (c.Link.rtt / 2))
    t

(* ------------------------------------------------------------------ *)
(* Harness for RPC tests                                               *)
(* ------------------------------------------------------------------ *)

type world = {
  engine : Engine.t;
  hier : Hierarchy.t;
  layout : Layout.t;
  link : Link.t;
}

let mk_world () =
  {
    engine = Engine.create ();
    hier = Hierarchy.create (Hierarchy.small_geometry ~cores:8);
    layout = Layout.create ();
    link = Link.create ();
  }

let mk_msg ?(client = 0) ?(target = -1) ?(value = None) ~id ~key () =
  let req =
    match value with
    | Some v -> Request.put ~key ~size:(Bytes.length v) ~buf:0
    | None -> Request.get ~key ~buf:0
  in
  { Message.id; client; sent_at = 0; target; req; value }

(* run [f] in a simthread against a fresh env *)
let in_thread w f =
  Simthread.spawn w.engine (fun ctx ->
      f (Env.make ~ctx ~hier:w.hier ~core:0));
  Engine.run_all w.engine

let mk_rpc ?(workers = 2) ?(max_workers = 8) w =
  Reconf_rpc.create ~engine:w.engine ~hier:w.hier ~layout:w.layout
    ~link:w.link ~max_workers ~workers ()

(* The two transports over the shared NIC side ({!Nic}), one worker each:
   the cases that test that side run through both.  [name] is the module
   every NIC error names; [make] takes a change to the transport's
   default config. *)
type nic_user = {
  name : string;
  make : (Nic.config -> Nic.config) -> world -> Transport.t;
}

let via_rpc =
  {
    name = "Reconf_rpc";
    make =
      (fun tweak w ->
        Reconf_rpc.transport
          (Reconf_rpc.create ~config:(tweak Reconf_rpc.default_config)
             ~engine:w.engine ~hier:w.hier ~layout:w.layout ~link:w.link
             ~max_workers:1 ~workers:1 ()));
  }

let via_erpc =
  {
    name = "Erpc";
    make =
      (fun tweak w ->
        Erpc.transport
          (Erpc.create ~config:(tweak Erpc.default_config) ~engine:w.engine
             ~hier:w.hier ~layout:w.layout ~link:w.link ~workers:1 ()));
  }

let overflow nic =
  Failure (nic.name ^ ": rx ring overflow (too many outstanding requests)")

(* ------------------------------------------------------------------ *)
(* Reconf_rpc                                                          *)
(* ------------------------------------------------------------------ *)

let test_rpc_mod_n_ownership () =
  let w = mk_world () in
  let rpc = mk_rpc ~workers:3 w in
  let tr = Reconf_rpc.transport rpc in
  for i = 0 to 8 do
    tr.Transport.deliver (mk_msg ~id:i ~key:(Int64.of_int (100 + i)) ())
  done;
  in_thread w (fun env ->
      (* worker k gets exactly slots k, k+3, k+6, in order *)
      for worker = 0 to 2 do
        for round = 0 to 2 do
          match tr.Transport.poll env ~worker with
          | Some (seq, msg) ->
            check_int "owned slot" worker (seq mod 3);
            check_int "in order" ((round * 3) + worker) seq;
            check_bool "buf = seq" true
              (msg.Message.req.Request.buf = seq)
          | None -> Alcotest.fail "expected a slot"
        done;
        check_bool "drained" true (tr.Transport.poll env ~worker = None)
      done)

let test_rpc_poll_empty () =
  let w = mk_world () in
  let rpc = mk_rpc w in
  let tr = Reconf_rpc.transport rpc in
  in_thread w (fun env ->
      check_bool "empty" true (tr.Transport.poll env ~worker:0 = None))

let test_rpc_response_roundtrip () =
  let w = mk_world () in
  let rpc = mk_rpc ~workers:1 w in
  let tr = Reconf_rpc.transport rpc in
  let got = ref None in
  tr.Transport.set_on_response (fun msg value ->
      got := Some (msg.Message.id, value, Engine.now w.engine));
  tr.Transport.deliver (mk_msg ~id:7 ~key:5L ());
  in_thread w (fun env ->
      match tr.Transport.poll env ~worker:0 with
      | Some (seq, _) ->
        let addr = tr.Transport.resp_alloc ~worker:0 ~bytes:64 in
        Env.store env ~addr ~size:64;
        tr.Transport.post_response env ~seq ~resp_addr:addr ~bytes:64
          ~value:(Some (Bytes.of_string "result"))
      | None -> Alcotest.fail "no slot");
  (match !got with
  | Some (id, Some v, at) ->
    check_int "message id" 7 id;
    Alcotest.(check string) "value" "result" (Bytes.to_string v);
    check_bool "arrives after rtt/2" true
      (at >= (Link.config w.link).Link.rtt / 2)
  | _ -> Alcotest.fail "no response");
  check_int "outstanding drained" 0 (Reconf_rpc.outstanding rpc);
  check_int "responded" 1 (Reconf_rpc.responded rpc)

let test_double_response_rejected nic () =
  let w = mk_world () in
  let tr = nic.make Fun.id w in
  tr.Transport.deliver (mk_msg ~id:0 ~target:0 ~key:5L ());
  in_thread w (fun env ->
      match tr.Transport.poll env ~worker:0 with
      | Some (seq, _) ->
        let addr = tr.Transport.resp_alloc ~worker:0 ~bytes:16 in
        tr.Transport.post_response env ~seq ~resp_addr:addr ~bytes:16 ~value:None;
        Alcotest.check_raises "double response"
          (Invalid_argument (Printf.sprintf "%s: unknown slot %d" nic.name seq))
          (fun () ->
            tr.Transport.post_response env ~seq ~resp_addr:addr ~bytes:16
              ~value:None)
      | None -> Alcotest.fail "no slot")

let test_rpc_put_payload_accessible () =
  let w = mk_world () in
  let rpc = mk_rpc ~workers:1 w in
  let tr = Reconf_rpc.transport rpc in
  let v = Bytes.make 100 'z' in
  tr.Transport.deliver (mk_msg ~id:0 ~key:5L ~value:(Some v) ());
  in_thread w (fun env ->
      match tr.Transport.poll env ~worker:0 with
      | Some (seq, msg) ->
        check_bool "payload carried" true (msg.Message.value = Some v);
        (* the message is DMA-resident in the LLC, from its first byte to
           its last (16-byte header + 100-byte payload) *)
        check_bool "rx slot in LLC" true
          (Hierarchy.probe_llc w.hier ~addr:(tr.Transport.slot_addr seq));
        check_bool "last byte in LLC" true
          (Hierarchy.probe_llc w.hier ~addr:(tr.Transport.slot_addr seq + 115))
      | None -> Alcotest.fail "no slot")

let test_rpc_grow_workers_mid_stream () =
  let w = mk_world () in
  let rpc = mk_rpc ~workers:2 ~max_workers:4 w in
  let tr = Reconf_rpc.transport rpc in
  (* 6 slots under n=2 *)
  for i = 0 to 5 do
    tr.Transport.deliver (mk_msg ~id:i ~key:(Int64.of_int i) ())
  done;
  Reconf_rpc.set_workers rpc 4;
  check_bool "reconfig pending" true (Reconf_rpc.reconfig_in_progress rpc);
  (* 8 more slots under n=4 *)
  for i = 6 to 13 do
    tr.Transport.deliver (mk_msg ~id:i ~key:(Int64.of_int i) ())
  done;
  let served = Array.make 14 (-1) in
  in_thread w (fun env ->
      for worker = 0 to 3 do
        let continue = ref true in
        while !continue do
          match tr.Transport.poll env ~worker with
          | Some (seq, _) -> served.(seq) <- worker
          | None -> continue := false
        done
      done);
  (* pre-switch slots follow mod 2; post-switch mod 4 *)
  for seq = 0 to 5 do
    check_int (Printf.sprintf "old slot %d" seq) (seq mod 2) served.(seq)
  done;
  for seq = 6 to 13 do
    check_int (Printf.sprintf "new slot %d" seq) (seq mod 4) served.(seq)
  done;
  check_bool "reconfig committed" false (Reconf_rpc.reconfig_in_progress rpc)

let test_rpc_shrink_workers_mid_stream () =
  let w = mk_world () in
  let rpc = mk_rpc ~workers:4 ~max_workers:4 w in
  let tr = Reconf_rpc.transport rpc in
  for i = 0 to 7 do
    tr.Transport.deliver (mk_msg ~id:i ~key:(Int64.of_int i) ())
  done;
  Reconf_rpc.set_workers rpc 2;
  for i = 8 to 13 do
    tr.Transport.deliver (mk_msg ~id:i ~key:(Int64.of_int i) ())
  done;
  let served = Array.make 14 (-1) in
  in_thread w (fun env ->
      for worker = 0 to 3 do
        let continue = ref true in
        while !continue do
          match tr.Transport.poll env ~worker with
          | Some (seq, _) -> served.(seq) <- worker
          | None -> continue := false
        done
      done);
  for seq = 0 to 7 do
    check_int (Printf.sprintf "old slot %d" seq) (seq mod 4) served.(seq)
  done;
  for seq = 8 to 13 do
    check_int (Printf.sprintf "new slot %d" seq) (seq mod 2) served.(seq)
  done;
  check_bool "reconfig committed" false (Reconf_rpc.reconfig_in_progress rpc);
  (* departed workers see nothing new *)
  in_thread w (fun env ->
      check_bool "worker 3 idle" true (tr.Transport.poll env ~worker:3 = None))

let prop_rpc_no_slot_lost_or_duplicated =
  QCheck.Test.make ~name:"reconfigurations never lose or duplicate slots"
    ~count:60
    QCheck.(
      pair (int_range 1 6)
        (list_of_size (Gen.int_range 1 30) (int_range 1 6)))
    (fun (n0, changes) ->
      QCheck.assume (n0 >= 1 && List.for_all (fun n -> n >= 1) changes);
      let w = mk_world () in
      let rpc = mk_rpc ~workers:n0 ~max_workers:6 w in
      let tr = Reconf_rpc.transport rpc in
      let id = ref 0 in
      let deliver_some k =
        for _ = 1 to k do
          tr.Transport.deliver (mk_msg ~id:!id ~key:(Int64.of_int !id) ());
          incr id
        done
      in
      deliver_some 5;
      List.iter
        (fun n ->
          Reconf_rpc.set_workers rpc n;
          deliver_some 3)
        changes;
      let seen = Hashtbl.create 64 in
      in_thread w (fun env ->
          for worker = 0 to 5 do
            let continue = ref true in
            while !continue do
              match tr.Transport.poll env ~worker with
              | Some (seq, _) ->
                if Hashtbl.mem seen seq then failwith "duplicate slot";
                Hashtbl.replace seen seq ()
              | None -> continue := false
            done
          done);
      Hashtbl.length seen = !id)

(* ------------------------------------------------------------------ *)
(* Erpc                                                                *)
(* ------------------------------------------------------------------ *)

let test_erpc_targets_ring () =
  let w = mk_world () in
  let erpc =
    Erpc.create ~engine:w.engine ~hier:w.hier ~layout:w.layout ~link:w.link
      ~workers:3 ()
  in
  let tr = Erpc.transport erpc in
  for i = 0 to 8 do
    tr.Transport.deliver (mk_msg ~id:i ~target:(i mod 3) ~key:(Int64.of_int i) ())
  done;
  in_thread w (fun env ->
      for worker = 0 to 2 do
        let count = ref 0 in
        let continue = ref true in
        while !continue do
          match tr.Transport.poll env ~worker with
          | Some (_, msg) ->
            check_int "routed to target" worker (msg.Message.id mod 3);
            incr count
          | None -> continue := false
        done;
        check_int "three each" 3 !count
      done)

let test_erpc_rejects_untargeted () =
  let w = mk_world () in
  let erpc =
    Erpc.create ~engine:w.engine ~hier:w.hier ~layout:w.layout ~link:w.link
      ~workers:2 ()
  in
  let tr = Erpc.transport erpc in
  Alcotest.check_raises "must target"
    (Invalid_argument "Erpc.deliver: message must target a worker") (fun () ->
      tr.Transport.deliver (mk_msg ~id:0 ~key:1L ()));
  Alcotest.check_raises "no reconfiguration"
    (Invalid_argument
       "Erpc: changing the worker count requires client coordination")
    (fun () -> tr.Transport.set_workers 3)

let test_erpc_response_roundtrip () =
  let w = mk_world () in
  let erpc =
    Erpc.create ~engine:w.engine ~hier:w.hier ~layout:w.layout ~link:w.link
      ~workers:2 ()
  in
  let tr = Erpc.transport erpc in
  let got = ref 0 in
  tr.Transport.set_on_response (fun _ _ -> incr got);
  tr.Transport.deliver (mk_msg ~id:1 ~target:1 ~key:9L ());
  in_thread w (fun env ->
      check_bool "other worker sees nothing" true
        (tr.Transport.poll env ~worker:0 = None);
      match tr.Transport.poll env ~worker:1 with
      | Some (seq, _) ->
        let addr = tr.Transport.resp_alloc ~worker:1 ~bytes:16 in
        tr.Transport.post_response env ~seq ~resp_addr:addr ~bytes:16 ~value:None
      | None -> Alcotest.fail "no slot");
  check_int "response delivered" 1 !got

let test_erpc_per_ring_accounting () =
  (* each worker's ring counts its own unanswered bytes: filling one
     leaves the other open, and answering a ring's slots frees that ring *)
  let w = mk_world () in
  let config = { Erpc.default_config with Erpc.ring_bytes = 4096 } in
  let tr =
    Erpc.transport
      (Erpc.create ~config ~engine:w.engine ~hier:w.hier ~layout:w.layout
         ~link:w.link ~workers:2 ())
  in
  let id = ref 0 in
  let send worker =
    incr id;
    tr.Transport.deliver (mk_msg ~id:!id ~target:worker ~key:(Int64.of_int !id) ())
  in
  (* a GET takes 16 bytes, so half a 4096-byte ring holds 128 *)
  let fill worker =
    for _ = 1 to 128 do
      send worker
    done;
    Alcotest.check_raises
      (Printf.sprintf "worker %d's ring full" worker)
      (overflow via_erpc)
      (fun () -> send worker)
  in
  fill 0;
  fill 1;
  in_thread w (fun env ->
      for _ = 1 to 128 do
        match tr.Transport.poll env ~worker:0 with
        | Some (seq, _) ->
          let addr = tr.Transport.resp_alloc ~worker:0 ~bytes:16 in
          tr.Transport.post_response env ~seq ~resp_addr:addr ~bytes:16
            ~value:None
        | None -> Alcotest.fail "expected a slot"
      done);
  fill 0;
  Alcotest.check_raises "worker 1's ring still full" (overflow via_erpc)
    (fun () -> send 1)

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

(* an echo server thread: polls all workers round-robin, answers with a
   16-byte ack *)
let echo_server w (tr : Transport.t) ~workers ~stop_at =
  Simthread.spawn w.engine (fun ctx ->
      let env = Env.make ~ctx ~hier:w.hier ~core:0 in
      while Simthread.now ctx < stop_at do
        let any = ref false in
        for worker = 0 to workers - 1 do
          match tr.Transport.poll env ~worker with
          | Some (seq, _) ->
            any := true;
            let addr = tr.Transport.resp_alloc ~worker ~bytes:16 in
            tr.Transport.post_response env ~seq ~resp_addr:addr ~bytes:16
              ~value:None
          | None -> ()
        done;
        if not !any then Simthread.delay ctx 200 else Simthread.yield ctx
      done)

let test_client_closed_loop () =
  let w = mk_world () in
  let rpc = mk_rpc ~workers:2 w in
  let tr = Reconf_rpc.transport rpc in
  let spec = Mutps_workload.Ycsb.c ~keyspace:100 ~value_size:8 () in
  let horizon = 3_000_000 in
  echo_server w tr ~workers:2 ~stop_at:horizon;
  let clients =
    Client.start ~engine:w.engine ~link:w.link ~transport:tr
      { Client.clients = 4; window = 2; spec; seed = 5;
        dispatch = Client.uniform_dispatch }
  in
  Engine.run w.engine ~until:horizon;
  let done_ = Client.completed clients in
  check_bool (Printf.sprintf "many ops completed (%d)" done_) true (done_ > 100);
  (* closed loop: in-flight never exceeds clients * window *)
  check_bool "bounded outstanding" true
    (Client.sent clients - done_ <= 4 * 2);
  let h = Client.latency clients in
  check_int "latency samples = completions" done_ (Stats.Hist.count h);
  let p50 = Stats.Hist.percentile h 50.0 in
  check_bool "p50 at least one RTT" true
    (p50 >= (Link.config w.link).Link.rtt)

let test_client_payload_deterministic () =
  let a = Client.payload ~key:42L ~size:64 in
  let b = Client.payload ~key:42L ~size:64 in
  let c = Client.payload ~key:43L ~size:64 in
  check_bool "same key same payload" true (Bytes.equal a b);
  check_bool "different key different payload" false (Bytes.equal a c)

(* The definition [Client.payload] keeps, one byte at a time: byte [i] is
   the low byte of hash round [i / 8 + 1]. *)
let payload_per_byte ~key ~size =
  let b = Bytes.create size in
  let h = ref (Rng.hash64 key) in
  for i = 0 to size - 1 do
    if i mod 8 = 0 then h := Rng.hash64 !h;
    Bytes.set b i (Char.chr (Int64.to_int !h land 0xFF))
  done;
  b

let test_client_payload_bytes () =
  List.iter
    (fun key ->
      List.iter
        (fun size ->
          Alcotest.(check string)
            (Printf.sprintf "key %Ld, %d bytes" key size)
            (Bytes.to_string (payload_per_byte ~key ~size))
            (Bytes.to_string (Client.payload ~key ~size)))
        [ 0; 1; 7; 8; 9; 64; 65 ])
    [ 0L; 42L; -1L; Int64.min_int; Int64.max_int ]

let test_client_reset_stats () =
  let w = mk_world () in
  let rpc = mk_rpc ~workers:1 w in
  let tr = Reconf_rpc.transport rpc in
  let spec = Mutps_workload.Ycsb.c ~keyspace:10 ~value_size:8 () in
  echo_server w tr ~workers:1 ~stop_at:2_000_000;
  let clients =
    Client.start ~engine:w.engine ~link:w.link ~transport:tr
      { Client.clients = 1; window = 1; spec; seed = 1;
        dispatch = Client.uniform_dispatch }
  in
  Engine.run w.engine ~until:1_000_000;
  check_bool "progress" true (Client.completed clients > 0);
  Client.reset_stats clients;
  check_int "reset" 0 (Client.completed clients);
  Engine.run w.engine ~until:2_000_000;
  check_bool "progress after reset" true (Client.completed clients > 0)


(* ------------------------------------------------------------------ *)
(* Additional transport edge cases                                     *)
(* ------------------------------------------------------------------ *)

let test_resp_alloc_wraps nic () =
  let w = mk_world () in
  let tr = nic.make Fun.id w in
  (* allocate more than the 64KB response buffer: the cursor must wrap and
     keep returning in-buffer addresses *)
  let first = tr.Transport.resp_alloc ~worker:0 ~bytes:4096 in
  let seen_first_again = ref false in
  for _ = 1 to 40 do
    let a = tr.Transport.resp_alloc ~worker:0 ~bytes:4096 in
    check_bool "aligned" true (a mod 16 = 0);
    if a = first then seen_first_again := true
  done;
  check_bool "cursor wrapped" true !seen_first_again

let test_resp_alloc_too_big nic () =
  let w = mk_world () in
  let tr = nic.make Fun.id w in
  Alcotest.check_raises "over buffer size"
    (Invalid_argument (nic.name ^ ".resp_alloc: too big")) (fun () ->
      ignore (tr.Transport.resp_alloc ~worker:0 ~bytes:(1 lsl 20)))

let test_ring_overflow_guard nic () =
  let w = mk_world () in
  let tr = nic.make (fun c -> { c with Reconf_rpc.ring_bytes = 4096 }) w in
  Alcotest.check_raises "rx overflow detected" (overflow nic) (fun () ->
      for i = 0 to 300 do
        tr.Transport.deliver (mk_msg ~id:i ~target:0 ~key:(Int64.of_int i) ())
      done)

let test_rpc_interleaved_consume_and_reconfig () =
  (* consume half the slots, reconfigure, deliver more, consume all:
     every slot is seen exactly once by its owner *)
  let w = mk_world () in
  let rpc = mk_rpc ~workers:2 ~max_workers:4 w in
  let tr = Reconf_rpc.transport rpc in
  for i = 0 to 7 do
    tr.Transport.deliver (mk_msg ~id:i ~key:(Int64.of_int i) ())
  done;
  let seen = Hashtbl.create 16 in
  in_thread w (fun env ->
      (* worker 0 consumes its first two slots only *)
      for _ = 1 to 2 do
        match tr.Transport.poll env ~worker:0 with
        | Some (seq, _) -> Hashtbl.replace seen seq ()
        | None -> Alcotest.fail "expected slot"
      done);
  Reconf_rpc.set_workers rpc 3;
  for i = 8 to 13 do
    tr.Transport.deliver (mk_msg ~id:i ~key:(Int64.of_int i) ())
  done;
  in_thread w (fun env ->
      for worker = 0 to 3 do
        let continue = ref true in
        while !continue do
          match tr.Transport.poll env ~worker with
          | Some (seq, _) ->
            if Hashtbl.mem seen seq then Alcotest.fail "slot seen twice";
            Hashtbl.replace seen seq ()
          | None -> continue := false
        done
      done);
  check_int "all 14 slots served once" 14 (Hashtbl.length seen)

let test_client_set_spec_switches_stream () =
  let w = mk_world () in
  let rpc = mk_rpc ~workers:1 w in
  let tr = Reconf_rpc.transport rpc in
  let spec_get = Mutps_workload.Ycsb.c ~keyspace:50 ~value_size:8 () in
  let spec_put = Mutps_workload.Ycsb.put_only ~keyspace:50 ~value_size:8 () in
  echo_server w tr ~workers:1 ~stop_at:4_000_000;
  let clients =
    Client.start ~engine:w.engine ~link:w.link ~transport:tr
      { Client.clients = 2; window = 1; spec = spec_get; seed = 5;
        dispatch = Client.uniform_dispatch }
  in
  let puts = ref 0 and gets = ref 0 in
  Client.on_completion clients (fun op _ ->
      match op.Mutps_workload.Opgen.kind with
      | Request.Put -> incr puts
      | Request.Get -> incr gets
      | _ -> ());
  Engine.run w.engine ~until:1_000_000;
  check_int "no puts under get spec" 0 !puts;
  Client.set_spec clients spec_put;
  let gets_before = !gets in
  Engine.run w.engine ~until:3_000_000;
  check_bool "puts after switch" true (!puts > 0);
  (* a couple of in-flight gets may drain, nothing more *)
  check_bool "gets stopped" true (!gets - gets_before <= 4)

let test_client_monitor_records_windows () =
  let w = mk_world () in
  let rpc = mk_rpc ~workers:1 w in
  let tr = Reconf_rpc.transport rpc in
  let spec = Mutps_workload.Ycsb.c ~keyspace:50 ~value_size:8 () in
  echo_server w tr ~workers:1 ~stop_at:6_000_000;
  let clients =
    Client.start ~engine:w.engine ~link:w.link ~transport:tr
      { Client.clients = 2; window = 1; spec; seed = 5;
        dispatch = Client.uniform_dispatch }
  in
  Engine.run w.engine ~until:6_000_000;
  let windows = Mutps_sim.Stats.Monitor.windows (Client.monitor clients) in
  check_bool "at least two 1ms windows closed" true (List.length windows >= 2);
  check_bool "some window saw completions" true
    (List.exists (fun (_, ops) -> ops > 0) windows)

let () =
  Alcotest.run "net"
    [
      ( "link",
        [
          Alcotest.test_case "rtt+serialization" `Quick test_link_rtt_and_serialization;
          Alcotest.test_case "bandwidth" `Quick test_link_bandwidth_dominates_large;
          Alcotest.test_case "directions independent" `Quick test_link_directions_independent;
        ] );
      ( "reconf_rpc",
        [
          Alcotest.test_case "mod-n ownership" `Quick test_rpc_mod_n_ownership;
          Alcotest.test_case "poll empty" `Quick test_rpc_poll_empty;
          Alcotest.test_case "response roundtrip" `Quick test_rpc_response_roundtrip;
          Alcotest.test_case "double response" `Quick
            (test_double_response_rejected via_rpc);
          Alcotest.test_case "put payload" `Quick test_rpc_put_payload_accessible;
          Alcotest.test_case "grow mid-stream" `Quick test_rpc_grow_workers_mid_stream;
          Alcotest.test_case "shrink mid-stream" `Quick test_rpc_shrink_workers_mid_stream;
          QCheck_alcotest.to_alcotest prop_rpc_no_slot_lost_or_duplicated;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "resp_alloc wraps" `Quick
            (test_resp_alloc_wraps via_rpc);
          Alcotest.test_case "resp_alloc too big" `Quick
            (test_resp_alloc_too_big via_rpc);
          Alcotest.test_case "ring overflow guard" `Quick
            (test_ring_overflow_guard via_rpc);
          Alcotest.test_case "interleaved reconfig" `Quick test_rpc_interleaved_consume_and_reconfig;
          Alcotest.test_case "client set_spec" `Quick test_client_set_spec_switches_stream;
          Alcotest.test_case "client monitor" `Quick test_client_monitor_records_windows;
        ] );
      ( "erpc",
        [
          Alcotest.test_case "targets ring" `Quick test_erpc_targets_ring;
          Alcotest.test_case "rejects untargeted" `Quick test_erpc_rejects_untargeted;
          Alcotest.test_case "response roundtrip" `Quick test_erpc_response_roundtrip;
          Alcotest.test_case "double response" `Quick
            (test_double_response_rejected via_erpc);
          Alcotest.test_case "resp_alloc wraps" `Quick
            (test_resp_alloc_wraps via_erpc);
          Alcotest.test_case "resp_alloc too big" `Quick
            (test_resp_alloc_too_big via_erpc);
          Alcotest.test_case "ring overflow guard" `Quick
            (test_ring_overflow_guard via_erpc);
          Alcotest.test_case "per-ring accounting" `Quick
            test_erpc_per_ring_accounting;
        ] );
      ( "client",
        [
          Alcotest.test_case "closed loop" `Quick test_client_closed_loop;
          Alcotest.test_case "payload deterministic" `Quick test_client_payload_deterministic;
          Alcotest.test_case "payload bytes" `Quick test_client_payload_bytes;
          Alcotest.test_case "reset stats" `Quick test_client_reset_stats;
        ] );
    ]
