(* Tests for the native runtime (lib/native): the work-stealing deque and
   scheduler, effect fibers, the RESP codec, the socket server — and the
   sim-vs-native equivalence suite proving both backends answer the same
   operation history with byte-identical replies. *)

open Mutps_native

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)
(* ------------------------------------------------------------------ *)

let test_deque_fifo () =
  let q = Deque.create ~capacity:128 () in
  for i = 0 to 99 do
    check_bool "push accepted" true (Deque.push q i)
  done;
  check_int "length" 100 (Deque.length q);
  for i = 0 to 99 do
    check_int "fifo order" i (Option.get (Deque.take q))
  done;
  check_bool "empty" true (Deque.take q = None)

let test_deque_full () =
  let q = Deque.create ~capacity:8 () in
  for i = 0 to 7 do
    check_bool "fits" true (Deque.push q i)
  done;
  check_bool "full rejects" false (Deque.push q 8);
  check_int "oldest out" 0 (Option.get (Deque.take q));
  check_bool "slot freed" true (Deque.push q 8)

(* Concurrent exactly-once: one owner pushes N distinct items through a
   small ring while several thief domains (and the owner) drain it; every
   item must be taken exactly once. *)
let test_deque_concurrent_exactly_once () =
  let n = 20_000 and thieves = 3 in
  let q = Deque.create ~capacity:64 () in
  let taken = Array.init n (fun _ -> Atomic.make 0) in
  let produced = Atomic.make false in
  let thief () =
    Domain.spawn (fun () ->
        let continue = ref true in
        while !continue do
          match Deque.take q with
          | Some i -> Atomic.incr taken.(i)
          | None ->
            if Atomic.get produced then continue := false
            else Domain.cpu_relax ()
        done)
  in
  let ds = Array.init thieves (fun _ -> thief ()) in
  for i = 0 to n - 1 do
    while not (Deque.push q i) do
      (* ring full: help drain *)
      match Deque.take q with
      | Some j -> Atomic.incr taken.(j)
      | None -> Domain.cpu_relax ()
    done
  done;
  Atomic.set produced true;
  Array.iter Domain.join ds;
  (* drain the tail the thieves may have left *)
  let continue = ref true in
  while !continue do
    match Deque.take q with
    | Some j -> Atomic.incr taken.(j)
    | None -> continue := false
  done;
  Array.iteri
    (fun i c -> check_int (Printf.sprintf "item %d exactly once" i) 1 (Atomic.get c))
    taken

(* ------------------------------------------------------------------ *)
(* Fibers and scheduler                                                *)
(* ------------------------------------------------------------------ *)

let test_sched_fifo_interleave () =
  let log = ref [] in
  let s = Sched.create ~workers:1 () in
  let fiber name =
    Sched.spawn s (fun () ->
        for i = 1 to 3 do
          log := Printf.sprintf "%s%d" name i :: !log;
          Fiber.yield ()
        done)
  in
  fiber "a";
  fiber "b";
  Sched.run s;
  check_int "all done" 0 (Sched.live s);
  (* single worker + FIFO queue: strict round-robin interleave *)
  Alcotest.(check (list string))
    "round robin"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_sched_spawn_from_fiber () =
  let hits = Atomic.make 0 in
  let s = Sched.create ~workers:2 () in
  Sched.spawn s (fun () ->
      for _ = 1 to 10 do
        Sched.spawn s (fun () -> Atomic.incr hits)
      done);
  Sched.run s;
  check_int "nested spawns all ran" 10 (Atomic.get hits)

let test_sched_error_propagates () =
  let s = Sched.create ~workers:2 () in
  Sched.spawn s (fun () -> failwith "boom");
  Alcotest.check_raises "fiber error re-raised" (Failure "boom") (fun () ->
      Sched.run s)

let test_fiber_stop_is_clean () =
  let s = Sched.create ~workers:1 () in
  Sched.spawn s (fun () -> raise Fiber.Stop);
  Sched.run s;
  check_int "stop = normal completion" 0 (Sched.live s)

(* A spawn from a foreign domain goes through the injector, and must be
   dispatched while the worker's own fiber keeps yielding: one worker, so
   its local queue is never empty and only the injector check can find
   the task.  A hundred spawns, each awaited before the next, so every
   one of them meets the count at its lowest.  The pool runs on its own
   domain, so a task left behind fails the test instead of hanging it. *)
let test_sched_foreign_spawn () =
  let spawns = 100 in
  let s = Sched.create ~workers:1 () in
  let ran = Atomic.make 0 and started = Atomic.make false in
  let give_up = Atomic.make false in
  Sched.spawn s (fun () ->
      Atomic.set started true;
      while Atomic.get ran < spawns && not (Atomic.get give_up) do
        Fiber.yield ()
      done);
  let pool = Domain.spawn (fun () -> Sched.run s) in
  let deadline = Clock.now_ns () + 10_000_000_000 in
  let await cond =
    while (not (cond ())) && Clock.now_ns () < deadline do
      Domain.cpu_relax ()
    done;
    cond ()
  in
  let rec spawn_from i =
    i > spawns
    || begin
         Sched.spawn s (fun () -> Atomic.incr ran);
         await (fun () -> Atomic.get ran >= i) && spawn_from (i + 1)
       end
  in
  if not (await (fun () -> Atomic.get started) && spawn_from 1) then begin
    Atomic.set give_up true;
    Alcotest.failf "foreign spawn %d never ran" (Atomic.get ran + 1)
  end;
  Domain.join pool;
  check_int "every foreign spawn ran" spawns (Atomic.get ran)

(* QCheck law: for any worker count and fiber population (each yielding a
   varying number of times), the work-stealing scheduler completes every
   spawned fiber exactly once. *)
let qcheck_sched_exactly_once =
  QCheck.Test.make ~count:30 ~name:"sched completes every fiber exactly once"
    QCheck.(pair (int_range 1 4) (int_range 1 120))
    (fun (workers, nfibers) ->
      let runs = Array.init nfibers (fun _ -> Atomic.make 0) in
      let s = Sched.create ~workers () in
      for i = 0 to nfibers - 1 do
        Sched.spawn s (fun () ->
            for _ = 1 to i mod 4 do
              Fiber.yield ()
            done;
            Atomic.incr runs.(i))
      done;
      Sched.run s;
      Sched.live s = 0
      && Array.for_all (fun c -> Atomic.get c = 1) runs)

(* ------------------------------------------------------------------ *)
(* Non-blocking I/O stubs                                              *)
(* ------------------------------------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () -> f a b)

let send fd s =
  check_int "sent whole" (String.length s)
    (Unix.write_substring fd s 0 (String.length s))

let test_nbio_read () =
  with_socketpair (fun a b ->
      let buf = Bytes.make 16 '.' in
      check_int "empty socket would block" Nbio.would_block
        (Nbio.read a buf 0 16);
      send b "hello";
      check_int "bytes read" 5 (Nbio.read a buf 3 8);
      check_string "landed at the offset" "...hello........"
        (Bytes.to_string buf);
      check_int "drained: would block again" Nbio.would_block
        (Nbio.read a buf 0 16);
      Unix.shutdown b Unix.SHUTDOWN_SEND;
      check_int "end of file reads 0" 0 (Nbio.read a buf 0 16);
      Alcotest.check_raises "range outside the buffer"
        (Invalid_argument "Nbio.read") (fun () -> ignore (Nbio.read a buf 10 7)))

let test_nbio_write_gone () =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev) @@ fun () ->
  with_socketpair (fun a b ->
      let msg = Bytes.of_string "xxpingxx" in
      check_int "bytes written" 4 (Nbio.write a msg 2 4);
      let got = Bytes.create 8 in
      check_int "peer got them" 4 (Unix.read b got 0 8);
      check_string "from the offset" "ping" (Bytes.sub_string got 0 4);
      Unix.close b;
      check_int "write after the peer closed" Nbio.peer_gone
        (Nbio.write a msg 0 8))

let test_nbio_poll () =
  with_socketpair (fun r0 r1 ->
      with_socketpair (fun q0 _q1 ->
          with_socketpair (fun h0 h1 ->
              send r1 "x";
              Unix.close h1;
              let fds = [| r0; q0; h0; q0 |] and ready = Array.make 4 7 in
              check_int "two ready" 2 (Nbio.poll fds 3 ready ~timeout_ms:0);
              Alcotest.(check (array int))
                "readable and hung up flagged, the quiet one not, past n \
                 untouched"
                [| 1; 0; 1; 7 |] ready;
              let t0 = Clock.now_ns () in
              check_int "nothing ready within the timeout" 0
                (Nbio.poll [| q0 |] 1 ready ~timeout_ms:20);
              check_bool "waited for it" true
                (Clock.now_ns () - t0 >= 15_000_000);
              check_int "nothing to poll" 0 (Nbio.poll fds 0 ready ~timeout_ms:0))))

let test_nbio_closed_fd () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  Unix.close b;
  let buf = Bytes.create 8 in
  check_int "read of a closed fd" Nbio.failed (Nbio.read a buf 0 8);
  check_int "write to a closed fd" Nbio.failed (Nbio.write a buf 0 8)

(* ------------------------------------------------------------------ *)
(* RESP codec                                                          *)
(* ------------------------------------------------------------------ *)

let encode_cmd cmd =
  let b = Buffer.create 64 in
  Resp.encode_command b cmd;
  Buffer.contents b

let parse_cmd_exn s =
  let b = Bytes.of_string s in
  match Resp.parse_command b ~len:(Bytes.length b) with
  | `Ok (cmd, consumed) ->
    check_int "whole frame consumed" (String.length s) consumed;
    cmd
  | `Need_more -> Alcotest.fail "incomplete"
  | `Bad m -> Alcotest.fail ("bad: " ^ m)

let test_resp_command_roundtrip () =
  (match parse_cmd_exn (encode_cmd (Resp.Get 42L)) with
  | Resp.Get k -> check_bool "get key" true (Int64.equal k 42L)
  | _ -> Alcotest.fail "not a get");
  (match parse_cmd_exn (encode_cmd (Resp.Set (7L, Bytes.of_string "\x00\xffbin\r\n"))) with
  | Resp.Set (k, v) ->
    check_bool "set key" true (Int64.equal k 7L);
    check_string "binary-safe value" "\x00\xffbin\r\n" (Bytes.to_string v)
  | _ -> Alcotest.fail "not a set");
  (match parse_cmd_exn (encode_cmd (Resp.Del (-3L))) with
  | Resp.Del k -> check_bool "negative key" true (Int64.equal k (-3L))
  | _ -> Alcotest.fail "not a del");
  match parse_cmd_exn (encode_cmd Resp.Ping) with
  | Resp.Ping -> ()
  | _ -> Alcotest.fail "not a ping"

let test_resp_incremental () =
  let full = encode_cmd (Resp.Set (123L, Bytes.of_string "value")) in
  (* every strict prefix must report Need_more, never Bad *)
  for cut = 0 to String.length full - 1 do
    let b = Bytes.of_string (String.sub full 0 cut) in
    match Resp.parse_command b ~len:cut with
    | `Need_more -> ()
    | `Ok _ -> Alcotest.fail "accepted a strict prefix"
    | `Bad m -> Alcotest.fail ("prefix rejected: " ^ m)
  done

(* Frames that can never complete: a bulk length no request can carry,
   and an integer header with no CRLF where the longest integer ends.
   Each must be refused once its header is read, not buffered. *)
let oversized_frames =
  [
    "*3\r\n$3\r\nSET\r\n$1\r\n1\r\n$1000000000000\r\n";
    "*" ^ String.make 64 '9';
  ]

let test_resp_bad_input () =
  let bad s =
    let b = Bytes.of_string s in
    match Resp.parse_command b ~len:(Bytes.length b) with
    | `Bad _ -> ()
    | `Ok _ -> Alcotest.fail ("accepted: " ^ String.escaped s)
    | `Need_more -> Alcotest.fail ("need-more: " ^ String.escaped s)
  in
  bad "*1\r\n$4\r\nNOPE\r\n";
  bad "*2\r\n$3\r\nGET\r\n$3\r\nabc\r\n";
  (* key not an int *)
  bad "*1\r\n$3\r\nGET\r\n";
  (* arity *)
  bad "+hello\r\n";
  (* replies are not commands *)
  List.iter bad oversized_frames;
  bad
    (Printf.sprintf "*3\r\n$3\r\nSET\r\n$1\r\n1\r\n$%d\r\n"
       (Mutps_queue.Request.max_size + 1))

(* A SET of the largest value a request can carry is still a frame,
   whatever chunks it arrives in. *)
let test_resp_max_value () =
  let value = Bytes.make Mutps_queue.Request.max_size 'v' in
  let b = Bytes.of_string (encode_cmd (Resp.Set (1L, value))) in
  let full = Bytes.length b in
  let len = ref 0 in
  while !len < full do
    (match Resp.parse_command b ~len:!len with
    | `Need_more -> ()
    | `Ok _ -> Alcotest.fail "accepted a strict prefix"
    | `Bad m -> Alcotest.fail ("prefix rejected: " ^ m));
    len := !len + 4093
  done;
  match Resp.parse_command b ~len:full with
  | `Ok (Resp.Set (_, v), consumed) ->
    check_int "whole frame consumed" full consumed;
    check_int "value length" Mutps_queue.Request.max_size (Bytes.length v)
  | _ -> Alcotest.fail "max-size SET did not parse"

let test_resp_reply_roundtrip () =
  let roundtrip r =
    let s = Resp.reply_to_string r in
    let b = Bytes.of_string s in
    match Resp.parse_reply b ~len:(Bytes.length b) with
    | `Ok (r', consumed) ->
      check_int "consumed" (String.length s) consumed;
      check_string "reply roundtrip" s (Resp.reply_to_string r')
    | _ -> Alcotest.fail "reply did not roundtrip"
  in
  roundtrip (Resp.Value (Bytes.of_string "some\r\nbytes"));
  roundtrip Resp.Nil;
  roundtrip (Resp.Ok_simple "OK");
  roundtrip (Resp.Ok_simple "PONG");
  roundtrip (Resp.Error "ERR nope");
  (* the loadgen's parser bounds its headers the same way *)
  List.iter
    (fun s ->
      let b = Bytes.of_string s in
      match Resp.parse_reply b ~len:(Bytes.length b) with
      | `Bad _ -> ()
      | _ -> Alcotest.fail ("reply not refused: " ^ String.escaped s))
    [ "$1000000000000\r\n"; "$" ^ String.make 64 '9' ]

(* [Resp.parse_command] as it was before it parsed frames in place:
   substrings, an argument array and an upper-case copy of the name.  The
   in-place parser must give every frame the same answer. *)
module Reference_parser = struct
  let find_crlf s ~pos ~len =
    let i = ref pos in
    let found = ref (-1) in
    while !found < 0 && !i + 1 < len do
      if Bytes.get s !i = '\r' && Bytes.get s (!i + 1) = '\n' then found := !i
      else incr i
    done;
    if !found < 0 then None else Some !found

  let max_int_len = String.length (string_of_int min_int)

  let parse_int_line s ~pos ~len : (int * int) Resp.parse =
    let window = pos + max_int_len + 2 in
    match find_crlf s ~pos ~len:(min len window) with
    | None -> if len >= window then `Bad "integer header too long" else `Need_more
    | Some e -> (
      match int_of_string_opt (Bytes.sub_string s pos (e - pos)) with
      | Some n -> `Ok ((n, e + 2), e + 2)
      | None -> `Bad "expected integer")

  let parse_bulk s ~pos ~len : (string * int) Resp.parse =
    if pos >= len then `Need_more
    else if Bytes.get s pos <> '$' then `Bad "expected bulk string"
    else
      match parse_int_line s ~pos:(pos + 1) ~len with
      | (`Need_more | `Bad _) as r -> r
      | `Ok ((n, body), _) ->
        if n < 0 then `Bad "negative bulk length"
        else if n > Mutps_queue.Request.max_size then `Bad "bulk string too long"
        else if body + n + 2 > len then `Need_more
        else if Bytes.get s (body + n) <> '\r' || Bytes.get s (body + n + 1) <> '\n'
        then `Bad "bulk string missing terminator"
        else `Ok ((Bytes.sub_string s body n, body + n + 2), body + n + 2)

  let parse_command s ~len : Resp.command Resp.parse =
    if len = 0 then `Need_more
    else if Bytes.get s 0 <> '*' then `Bad "expected array"
    else
      match parse_int_line s ~pos:1 ~len with
      | (`Need_more | `Bad _) as r -> r
      | `Ok ((argc, pos0), _) ->
        if argc < 1 || argc > 3 then `Bad "wrong number of arguments"
        else begin
          let args = Array.make argc "" in
          let rec collect i pos : Resp.command Resp.parse =
            if i = argc then finish pos
            else
              match parse_bulk s ~pos ~len with
              | (`Need_more | `Bad _) as r -> r
              | `Ok ((a, next), _) ->
                args.(i) <- a;
                collect (i + 1) next
          and key_of i : (int64, string) result =
            match Int64.of_string_opt args.(i) with
            | Some k -> Result.Ok k
            | None -> Result.Error "key must be a decimal integer"
          and finish consumed : Resp.command Resp.parse =
            let cmd = String.uppercase_ascii args.(0) in
            match cmd, argc with
            | "PING", 1 -> `Ok (Resp.Ping, consumed)
            | "GET", 2 -> (
              match key_of 1 with
              | Result.Ok k -> `Ok (Resp.Get k, consumed)
              | Result.Error m -> `Bad m)
            | "DEL", 2 -> (
              match key_of 1 with
              | Result.Ok k -> `Ok (Resp.Del k, consumed)
              | Result.Error m -> `Bad m)
            | "SET", 3 -> (
              match key_of 1 with
              | Result.Ok k ->
                `Ok (Resp.Set (k, Bytes.of_string args.(2)), consumed)
              | Result.Error m -> `Bad m)
            | ("PING" | "GET" | "DEL" | "SET"), _ ->
              `Bad ("wrong number of arguments for " ^ cmd)
            | _ -> `Bad ("unknown command " ^ cmd)
          in
          collect 0 pos0
        end
end

(* Frames built to reach every branch of both parsers: command names in
   any case, keys in every spelling [Int64.of_string] takes or refuses
   (signs, 0x/0o/0b/0u, underscores, leading zeros, 1 to 20 digits, the
   int64 limits and one past them), and headers that are right, negative,
   past [Request.max_size], spelled oddly, longer than [min_int] written
   out, or not ended; payloads with or without their terminator.  Each
   frame may be followed by the start of another. *)
let resp_frame_gen =
  let open QCheck.Gen in
  let digits n = string_size ~gen:(char_range '0' '9') (return n) in
  let any_case name =
    map
      (fun flips ->
        String.mapi
          (fun i c ->
            if List.nth flips (i mod List.length flips) then
              Char.lowercase_ascii c
            else c)
          name)
      (list_size (return 4) bool)
  in
  let name =
    oneofl [ "GET"; "SET"; "DEL"; "PING"; "NOPE"; "GETS"; "" ] >>= any_case
  in
  let key =
    frequency
      [
        (3, map string_of_int small_signed_int);
        (3, int_range 1 20 >>= digits);
        (3, map (fun d -> "-" ^ d) (int_range 1 20 >>= digits));
        ( 2,
          oneofl
            [
              "+7"; "-0"; "0x1f"; "0X1F"; "-0x10"; "1_000"; "_1"; "1_"; "0b101";
              "0o17"; "0u5"; "007"; "-007"; "000000000000000000";
              Int64.to_string Int64.min_int; Int64.to_string Int64.max_int;
              "9223372036854775808"; "-9223372036854775809";
              "99999999999999999999"; ""; "-"; "+"; "abc"; " 1"; "1 "; "1\r2";
              "0xffffffffffffffff";
            ] );
      ]
  in
  let value = string_size ~gen:(oneofl [ 'a'; 'z'; '\r'; '\n'; '\000'; '7' ]) (int_range 0 12) in
  let header correct =
    frequency
      [
        (12, return (string_of_int correct));
        ( 1,
          oneofl
            [
              "-1"; "-5"; string_of_int (Mutps_queue.Request.max_size + 1);
              "+" ^ string_of_int correct; "0" ^ string_of_int correct;
              Printf.sprintf "0x%x" correct; string_of_int correct ^ "_"; "";
              "-"; "x"; String.make 21 '9'; String.make 20 '9';
              string_of_int min_int; string_of_int max_int ^ "0";
              string_of_int (correct + 1); string_of_int (max 0 (correct - 1));
            ] );
      ]
  in
  let terminator = frequency [ (12, return "\r\n"); (1, oneofl [ ""; "\r"; "\n"; "\rx" ]) ] in
  let bulk payload =
    frequency [ (15, return '$'); (1, return '+') ] >>= fun dollar ->
    header (String.length payload) >>= fun h ->
    terminator >>= fun t ->
    return (Printf.sprintf "%c%s\r\n%s%s" dollar h payload t)
  in
  let frame =
    int_range 0 3 >>= fun extra ->
    name >>= fun n ->
    key >>= fun k ->
    value >>= fun v ->
    let args = List.filteri (fun i _ -> i <= extra) [ n; k; v; v ] in
    flatten_l (List.map bulk args) >>= fun bulks ->
    frequency [ (15, return '*'); (1, return '$') ] >>= fun star ->
    header (List.length args) >>= fun argc ->
    return (Printf.sprintf "%c%s\r\n%s" star argc (String.concat "" bulks))
  in
  frame >>= fun f ->
  frequency
    [ (3, return f); (1, map (fun g -> f ^ String.sub g 0 (String.length g / 2)) frame) ]

(* Every prefix of every generated frame gets the reference's answer:
   the same command and [consumed], [`Need_more], or the same reason. *)
let qcheck_resp_matches_reference =
  QCheck.Test.make ~count:3000 ~name:"parse_command agrees with the reference"
    (QCheck.make ~print:String.escaped resp_frame_gen)
    (fun frame ->
      let b = Bytes.of_string frame in
      let agree len =
        match (Resp.parse_command b ~len, Reference_parser.parse_command b ~len) with
        | `Ok (c, n), `Ok (c', n') -> c = c' && n = n'
        | `Need_more, `Need_more -> true
        | `Bad m, `Bad m' -> String.equal m m'
        | _ -> false
      in
      let rec all len = len > Bytes.length b || (agree len && all (len + 1)) in
      all 0)

(* ------------------------------------------------------------------ *)
(* Sim-vs-native equivalence                                           *)
(* ------------------------------------------------------------------ *)

module Kvs = Mutps_kvs
module Engine = Mutps_sim.Engine
module Request = Mutps_queue.Request
module Message = Mutps_net.Message
module Transport = Mutps_net.Transport
module Opgen = Mutps_workload.Opgen

type eq_op = Eget of int64 | Eput of int64 * int | Edel of int64

let preload_keys = 32
let eq_value_size = 16

(* the shared deterministic reply-byte synthesis: operation outcome ->
   wire bytes, used verbatim by the native server *)
let op_request = function
  | Eget key -> (Request.get ~key ~buf:0, None)
  | Edel key -> (Request.delete ~key ~buf:0, None)
  | Eput (key, size) ->
    ( Request.put ~key ~size ~buf:0,
      Some (Mutps_net.Client.payload ~key ~size) )

(* Drive a simulated system one operation at a time: deliver, then step
   the engine until the response callback fires, and synthesize the wire
   bytes the native server would send for the same outcome.  Also returns
   how many requests the CR layer answered (0 for BaseKV). *)
let sim_replies system ops =
  let config = Kvs.Config.default ~cores:2 ~capacity:256 () in
  let transport, engine, cr_hits =
    match system with
    | `Basekv ->
      let kv = Kvs.Rtc.basekv config in
      Kvs.Backend.populate (Kvs.Rtc.backend kv) ~keyspace:preload_keys
        ~value_size:eq_value_size;
      Kvs.Rtc.start kv;
      ( Kvs.Rtc.transport kv,
        (Kvs.Rtc.backend kv).Kvs.Backend.engine,
        fun () -> 0 )
    | `Mutps ->
      (* every op sampled and a refresh every few ops (each op below runs
         the engine for at least 100K cycles): the hot set is live while
         the history runs, so the CR layer answers as well as the MR *)
      let kv =
        Kvs.Mutps.create
          { config with Kvs.Config.refresh_cycles = 400_000; sample_every = 1 }
      in
      Kvs.Backend.populate (Kvs.Mutps.backend kv) ~keyspace:preload_keys
        ~value_size:eq_value_size;
      Kvs.Mutps.start kv;
      ( Kvs.Mutps.transport kv,
        (Kvs.Mutps.backend kv).Kvs.Backend.engine,
        fun () -> Kvs.Mutps.cr_hits kv )
  in
  let replies = ref [] in
  transport.Transport.set_on_response (fun (msg : Message.t) value ->
      replies :=
        Resp.reply_to_string
          (Resp.reply_for_op msg.Message.req.Request.kind value)
        :: !replies);
  List.iteri
    (fun i op ->
      let req, value = op_request op in
      let before = List.length !replies in
      transport.Transport.deliver
        {
          Message.id = i;
          client = 0;
          sent_at = Engine.now engine;
          target = -1;
          req;
          value;
        };
      let guard = ref 0 in
      while List.length !replies = before && !guard < 2_000 do
        Engine.run engine ~until:(Engine.now engine + 100_000);
        incr guard
      done;
      if List.length !replies = before then
        Alcotest.fail (Printf.sprintf "sim reply %d never arrived" i))
    ops;
  (List.rev !replies, cr_hits ())

(* Drive the native server over a real socket, one operation at a time,
   collecting the raw reply bytes. *)
let native_replies mode ops =
  let path = Filename.temp_file "mutps-eq" ".sock" in
  Sys.remove path;
  let handle =
    Server.launch
      {
        Server.default_config with
        Server.mode;
        listen = Server.Unix_path path;
        domains = 3;
        shards = 2;
        keyspace = preload_keys;
        value_size = eq_value_size;
        hot_cap = 8;
      }
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let rbuf = Bytes.create 65536 in
  let rlen = ref 0 in
  let read_reply () =
    let rec loop () =
      match Resp.parse_reply rbuf ~len:!rlen with
      | `Ok (r, consumed) ->
        Bytes.blit rbuf consumed rbuf 0 (!rlen - consumed);
        rlen := !rlen - consumed;
        Resp.reply_to_string r
      | `Bad m -> Alcotest.fail ("native protocol error: " ^ m)
      | `Need_more ->
        let n = Unix.read fd rbuf !rlen (Bytes.length rbuf - !rlen) in
        if n = 0 then Alcotest.fail "native server closed early";
        rlen := !rlen + n;
        loop ()
    in
    loop ()
  in
  let send_op op =
    let cmd =
      match op with
      | Eget k -> Resp.Get k
      | Edel k -> Resp.Del k
      | Eput (k, size) ->
        Resp.Set (k, Mutps_net.Client.payload ~key:k ~size)
    in
    let b = Buffer.create 64 in
    Resp.encode_command b cmd;
    let s = Buffer.contents b in
    ignore (Unix.write_substring fd s 0 (String.length s))
  in
  let replies = List.map (fun op -> send_op op; read_reply ()) ops in
  Unix.close fd;
  Server.stop handle;
  ignore (Server.wait handle);
  replies

let scripted_ops =
  let hot key = List.init 6 (fun _ -> Eget key) in
  [
    Eget 1L;  (* preloaded hit *)
    Eget 100L;  (* miss *)
    Eput (100L, 24);
    Eget 100L;  (* now a hit with the new value *)
    Eget 100L;
    Eput (1L, 9);  (* overwrite a preloaded key *)
    Eget 1L;
    Edel 1L;
    Eget 1L;  (* miss after delete *)
    Edel 1L;  (* delete of a missing key still acks *)
    Eput (1L, 5);
    Eget 1L;
  ]
  (* keys in the simulated hot set when they are deleted: the DEL must
     win over the cached item, and a SET after it over the next refresh *)
  @ hot 2L
  @ [ Edel 2L; Eget 2L ]
  @ hot 3L
  @ [ Edel 3L; Eput (3L, 12) ]
  @ hot 3L

(* a longer generated history over a keyspace straddling the preload
   boundary, so it mixes hits, misses, overwrites, and deletes *)
let generated_ops n =
  let spec =
    {
      Opgen.name = "equiv";
      keyspace = preload_keys + 16;
      key_dist = Opgen.Zipfian 0.9;
      size_dist = Opgen.Fixed 24;
      mix = { Opgen.get = 0.5; put = 0.4; scan = 0.0 };
      scan_len = 1;
    }
  in
  let gen = Opgen.make spec ~seed:33 in
  List.init n (fun _ ->
      let op = Opgen.next gen in
      match op.Opgen.kind with
      | Request.Get | Request.Scan -> Eget op.Opgen.key
      | Request.Put -> Eput (op.Opgen.key, max 1 op.Opgen.size)
      | Request.Delete -> Edel op.Opgen.key)

let check_same_replies a b =
  check_int "same reply count" (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      check_string (Printf.sprintf "reply %d byte-identical" i) x y)
    (List.combine a b)

let checked_sim_replies system ops =
  let replies, cr_hits = sim_replies system ops in
  if system = `Mutps then
    check_bool "the simulated CR layer answered from its hot set" true
      (cr_hits > 0);
  replies

let equivalence_ops = scripted_ops @ generated_ops 150

let check_equivalence system mode ops =
  let sim = checked_sim_replies system ops in
  check_same_replies sim (native_replies mode ops)

let test_equivalence_basekv () =
  check_equivalence `Basekv (Server.Rtc_pool Kvs.Exec.Locked)
    equivalence_ops

let test_equivalence_mutps () =
  check_equivalence `Mutps Server.Split equivalence_ops

(* The two thread models run one execution stage, so the simulated BaseKV
   and the simulated μTPS, its hot set live, answer alike. *)
let test_equivalence_thread_models () =
  check_same_replies
    (checked_sim_replies `Basekv equivalence_ops)
    (checked_sim_replies `Mutps equivalence_ops)

(* ------------------------------------------------------------------ *)
(* Server + loadgen smoke                                              *)
(* ------------------------------------------------------------------ *)

let test_serve_loadgen ?(domains = 3) () =
  let path = Filename.temp_file "mutps-smoke" ".sock" in
  Sys.remove path;
  let handle =
    Server.launch
      {
        Server.default_config with
        Server.mode = Server.Split;
        listen = Server.Unix_path path;
        domains;
        shards = 2;
        keyspace = 512;
        value_size = 32;
        hot_cap = 64;
      }
  in
  let spec =
    {
      Opgen.name = "smoke";
      keyspace = 512;
      key_dist = Opgen.Zipfian 0.9;
      size_dist = Opgen.Fixed 32;
      mix = { Opgen.get = 0.7; put = 0.3; scan = 0.0 };
      scan_len = 1;
    }
  in
  (* rounds of skewed load until it has lasted a few hot-set refresh
     periods (200 ms each), so the manager has published hot sets *)
  let rounds = ref 0 and elapsed_ns = ref 0 in
  while !elapsed_ns < 1_000_000_000 do
    let r =
      Loadgen.run
        {
          Loadgen.connect = Server.Unix_path path;
          conns = 4;
          ops = 2_000;
          spec;
          seed = 5 + !rounds;
        }
    in
    check_int "every op answered" 2_000 r.Loadgen.completed;
    check_int "no errors" 0 r.Loadgen.errors;
    check_bool "keyspace preloaded: gets mostly hit" true
      (r.Loadgen.get_hits > r.Loadgen.get_misses);
    incr rounds;
    elapsed_ns := !elapsed_ns + r.Loadgen.elapsed_ns
  done;
  Server.stop handle;
  let s = Server.wait handle in
  check_int "connections accepted" (4 * !rounds) s.Server.conns;
  check_bool "KVS answered the non-ping traffic" true (s.Server.responded > 0);
  check_int "split answered everything it was given" s.Server.responded
    (s.Server.cr_hits + s.Server.mr_ops);
  check_bool "the hot set answered some requests at the CR layer" true
    (s.Server.cr_hits > 0)

let test_serve_ping_and_errors () =
  let path = Filename.temp_file "mutps-ping" ".sock" in
  Sys.remove path;
  let handle =
    Server.launch
      {
        Server.default_config with
        Server.listen = Server.Unix_path path;
        domains = 2;
        shards = 1;
      }
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let buf = Bytes.create 4096 in
  let read_some () =
    let n = Unix.read fd buf 0 4096 in
    Bytes.sub_string buf 0 n
  in
  send "*1\r\n$4\r\nPING\r\n";
  check_string "pong" "+PONG\r\n" (read_some ());
  (* unknown command: clear error, then the server closes the connection *)
  send "*1\r\n$4\r\nNOPE\r\n";
  let err = read_some () in
  check_bool "error reply" true
    (String.length err > 4 && String.sub err 0 4 = "-ERR");
  check_string "connection closed after protocol error" "" (read_some ());
  Unix.close fd;
  Server.stop handle;
  ignore (Server.wait handle)

(* ------------------------------------------------------------------ *)
(* The readiness-driven poller                                         *)
(* ------------------------------------------------------------------ *)

let poller_keyspace = 64
let poller_value_size = 16

(* loadgen traffic for the poller cases: skewed, 30% SETs, every key
   preloaded *)
let poller_spec =
  {
    Opgen.name = "poller";
    keyspace = poller_keyspace;
    key_dist = Opgen.Zipfian 0.9;
    size_dist = Opgen.Fixed poller_value_size;
    mix = { Opgen.get = 0.7; put = 0.3; scan = 0.0 };
    scan_len = 1;
  }

let launch_poller ?(mode = Server.Split) ?(domains = 2) listen =
  Server.launch
    {
      Server.default_config with
      Server.mode;
      listen;
      domains;
      shards = 2;
      keyspace = poller_keyspace;
      value_size = poller_value_size;
      hot_cap = 16;
    }

let launch_poller_server ?mode ?domains name =
  let path = Filename.temp_file name ".sock" in
  Sys.remove path;
  (path, launch_poller ?mode ?domains (Server.Unix_path path))

let connect_unix path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let write_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* Read exactly [n] bytes, failing rather than hanging if they stop (a
   receive timeout, not [select], which cannot watch every fd). *)
let read_exactly fd n =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let buf = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    match Unix.read fd buf !got (n - !got) with
    | 0 -> Alcotest.fail (Printf.sprintf "EOF after %d of %d bytes" !got n)
    | k -> got := !got + k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail (Printf.sprintf "stalled after %d of %d bytes" !got n)
  done;
  Bytes.to_string buf

(* Write in 64 KiB chunks, as a client sending a large value does. *)
let write_chunked fd s =
  let chunk = 65_536 in
  for i = 0 to (String.length s - 1) / chunk do
    let off = i * chunk in
    write_all fd (String.sub s off (min chunk (String.length s - off)))
  done

let ping_ok fd =
  write_all fd (encode_cmd Resp.Ping);
  check_string "still serving" "+PONG\r\n" (read_exactly fd 7)

(* One write carries hundreds of commands over both shards — hits on
   preloaded keys (repeated, so a batch sees duplicates), SETs, PINGs,
   misses, and a DEL, SET, GET of one key back to back, read again much
   later — and must come back in order, each answered exactly once (the
   server's own count of KVS replies included); then a command split over
   two writes is reassembled. *)
let test_poller_pipelined ?domains mode () =
  let path, handle = launch_poller_server ~mode ?domains "mutps-pipe" in
  let fd = connect_unix path in
  let cmds = Buffer.create 16384 and want = Buffer.create 16384 in
  (* GET/SET/DEL commands sent: the poller answers PING itself *)
  let kv_sent = ref 0 in
  let add cmd reply =
    Resp.encode_command cmds cmd;
    Buffer.add_string want (Resp.reply_to_string reply);
    match cmd with
    | Resp.Ping -> ()
    | Resp.Get _ | Resp.Set _ | Resp.Del _ -> incr kv_sent
  in
  (* preloaded keys the GETs below never touch *)
  let reset_key i = Int64.of_int (20 + (i / 100)) in
  let new_value key = Mutps_net.Client.payload ~key ~size:24 in
  for i = 0 to 399 do
    (match i mod 4 with
    | 0 ->
      let key = Int64.of_int (i / 4 mod 16) in
      add (Resp.Get key)
        (Resp.Value (Mutps_net.Client.payload ~key ~size:poller_value_size))
    | 1 ->
      let key = Int64.of_int (1000 + (i / 4)) in
      add (Resp.Set (key, Mutps_net.Client.payload ~key ~size:24)) (Resp.Ok_simple "OK")
    | 2 -> add Resp.Ping (Resp.Ok_simple "PONG")
    | _ -> add (Resp.Get (Int64.of_int (5000 + (i / 4)))) Resp.Nil);
    if i mod 100 = 50 then begin
      let key = reset_key i in
      add (Resp.Del key) (Resp.Ok_simple "OK");
      add (Resp.Set (key, new_value key)) (Resp.Ok_simple "OK");
      add (Resp.Get key) (Resp.Value (new_value key))
    end
  done;
  (* the SETs after the DELs stuck *)
  for i = 0 to 3 do
    let key = reset_key (i * 100) in
    add (Resp.Get key) (Resp.Value (new_value key))
  done;
  write_all fd (Buffer.contents cmds);
  check_string "in-order replies" (Buffer.contents want)
    (read_exactly fd (Buffer.length want));
  (* exactly once: the next bytes are the next command's reply *)
  ping_ok fd;
  let key = 7000L in
  let value = Mutps_net.Client.payload ~key ~size:40 in
  let set = encode_cmd (Resp.Set (key, value)) in
  write_all fd (String.sub set 0 9);
  Unix.sleepf 0.02;
  write_all fd (String.sub set 9 (String.length set - 9));
  check_string "split command answered" "+OK\r\n" (read_exactly fd 5);
  write_all fd (encode_cmd (Resp.Get key));
  let want = Resp.reply_to_string (Resp.Value value) in
  check_string "split command applied" want (read_exactly fd (String.length want));
  Unix.close fd;
  Server.stop handle;
  let s = Server.wait handle in
  check_int "the shards answered every KVS command once" (!kv_sent + 2)
    s.Server.responded

(* 64 closed loops at once, every reply checked against the value its key
   owes. *)
let test_poller_many_conns () =
  let path, handle = launch_poller_server "mutps-many" in
  let ops = 6_400 in
  let r =
    Loadgen.run
      {
        Loadgen.connect = Server.Unix_path path;
        conns = 64;
        ops;
        spec = poller_spec;
        seed = 9;
      }
  in
  check_int "every op answered" ops r.Loadgen.completed;
  check_int "no errors" 0 r.Loadgen.errors;
  check_int "every reply the one owed" 0 r.Loadgen.wrong;
  check_int "every key preloaded" 0 r.Loadgen.get_misses;
  Server.stop handle;
  let s = Server.wait handle in
  check_int "connections accepted" 64 s.Server.conns

(* The TCP listener: a free loopback port, found by binding port 0,
   serves a loadgen round with every reply the one owed. *)
let test_serve_tcp () =
  let port =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> Alcotest.fail "port 0 bound no port"
    in
    Unix.close fd;
    port
  in
  let listen = Server.Tcp ("127.0.0.1", port) in
  let handle = launch_poller listen in
  let ops = 2_000 in
  let r =
    Loadgen.run
      { Loadgen.connect = listen; conns = 4; ops; spec = poller_spec; seed = 13 }
  in
  check_int "every op answered" ops r.Loadgen.completed;
  check_int "no errors" 0 r.Loadgen.errors;
  check_int "every reply the one owed" 0 r.Loadgen.wrong;
  Server.stop handle;
  let s = Server.wait handle in
  check_int "connections accepted" 4 s.Server.conns;
  check_int "the shards answered every op once" ops s.Server.responded

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Poll until the server has closed what it should have, or give up. *)
let await_fds want =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while open_fds () <> want && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  check_int "fd count back at baseline" want (open_fds ())

(* Clients come and go in every way a client can: a clean round trip, a
   connect-and-leave, a half-sent command, and one that pipelines 5000
   GETs and vanishes with every reply still in flight (its replies hit
   EPIPE/ECONNRESET).  The server must keep serving and leak no fd. *)
let test_poller_churn () =
  let path, handle = launch_poller_server "mutps-churn" in
  let baseline = open_fds () in
  let gets =
    String.concat ""
      (List.init 5000 (fun i -> encode_cmd (Resp.Get (Int64.of_int (i mod 64)))))
  in
  for round = 1 to 5 do
    let fd = connect_unix path in
    ping_ok fd;
    Unix.close fd;
    Unix.close (connect_unix path);
    let fd = connect_unix path in
    write_all fd (String.sub (encode_cmd (Resp.Get 3L)) 0 6);
    Unix.close fd;
    let fd = connect_unix path in
    write_all fd gets;
    if round mod 2 = 0 then Unix.shutdown fd Unix.SHUTDOWN_SEND;
    Unix.close fd
  done;
  await_fds baseline;
  let fd = connect_unix path in
  ping_ok fd;
  Unix.close fd;
  await_fds baseline;
  Server.stop handle;
  let s = Server.wait handle in
  check_int "every connection accepted" 21 s.Server.conns

(* Fill every fd below FD_SETSIZE, which [select] cannot watch past, so
   the server's next accept and every client socket land beyond it: a
   PING from such a client is answered, the client is counted, and a
   loadgen round over such connections gets every reply it is owed. *)
let test_poller_fd_setsize () =
  let path, handle = launch_poller_server "mutps-fdmax" in
  let spares = ref [] in
  let selectable fd =
    match Unix.select [ fd ] [] [] 0.0 with
    | _ -> true
    | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  in
  let rec fill () =
    match Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | fd ->
      spares := fd :: !spares;
      if selectable fd then fill () else true
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> false
  in
  let reached = fill () in
  let release () =
    List.iter Unix.close !spares;
    spares := []
  in
  if not reached then begin
    (* ulimit -n <= FD_SETSIZE: no fd can be out of reach *)
    release ();
    Server.stop handle;
    ignore (Server.wait handle);
    Alcotest.skip ()
  end;
  Fun.protect ~finally:release @@ fun () ->
  let fd = connect_unix path in
  check_bool "the client's fd is past FD_SETSIZE" false (selectable fd);
  ping_ok fd;
  Unix.close fd;
  let ops = 400 in
  let r =
    Loadgen.run
      {
        Loadgen.connect = Server.Unix_path path;
        conns = 4;
        ops;
        spec = poller_spec;
        seed = 17;
      }
  in
  check_int "every op answered" ops r.Loadgen.completed;
  check_int "every reply the one owed" 0 r.Loadgen.wrong;
  Server.stop handle;
  let s = Server.wait handle in
  check_int "every client counted" 5 s.Server.conns

(* Read until the server closes the connection, failing rather than
   hanging if it does not. *)
let read_to_close fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let out = Buffer.create 64 and buf = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes out buf 0 n;
      go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail (Printf.sprintf "still open after %S" (Buffer.contents out))
  in
  go ();
  Buffer.contents out

(* A frame that can never complete is refused with an error and a close
   once its header is read, instead of growing the read buffer for ever;
   a SET of the largest value a request can carry, written in 64 KiB
   chunks, is still served. *)
let test_poller_bounded_frames () =
  let path, handle = launch_poller_server "mutps-frames" in
  List.iter
    (fun frame ->
      let fd = connect_unix path in
      write_all fd frame;
      let reply = read_to_close fd in
      check_bool ("error reply to " ^ String.escaped frame) true
        (String.length reply > 4 && String.sub reply 0 4 = "-ERR");
      Unix.close fd)
    oversized_frames;
  let fd = connect_unix path in
  write_chunked fd
    (encode_cmd
       (Resp.Set (900_000L, Bytes.make Mutps_queue.Request.max_size 'v')));
  check_string "max-size SET answered" "+OK\r\n" (read_exactly fd 5);
  ping_ok fd;
  Unix.close fd;
  Server.stop handle;
  ignore (Server.wait handle)

(* Read what arrives until the server closes [fd] or [timeout] seconds
   pass, under a [select] timeout: the bytes delivered, and whether the
   close came. *)
let read_until_closed fd ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Bytes.create 65_536 in
  let rec go got =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then (got, false)
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> (got, false)
      | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> (got, true)
        | n -> go (got + n)
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> (got, true))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
  in
  go 0

(* A client that pipelines GETs of a max-size value and reads none of the
   replies is dropped once its reply buffer passes the server's bound,
   with fewer than all of them delivered; another client is unaffected.
   A GET on the same shard (both keys are even) from a second connection,
   answered after the pipelined ones since run-to-completion serves a
   shard in order, makes sure every reply was produced before the first
   client reads. *)
let test_poller_slow_reader () =
  let path, handle =
    launch_poller_server ~mode:(Server.Rtc_pool Kvs.Exec.Locked) "mutps-slow"
  in
  let key = 900_000L and gets = 32 in
  let value = Bytes.make Request.max_size 'v' in
  let reader = connect_unix path in
  write_chunked reader (encode_cmd (Resp.Set (key, value)));
  check_string "max-size SET answered" "+OK\r\n" (read_exactly reader 5);
  write_all reader
    (String.concat "" (List.init gets (fun _ -> encode_cmd (Resp.Get key))));
  let other = connect_unix path in
  let barrier = 0L in
  write_all other (encode_cmd (Resp.Get barrier));
  let want =
    Resp.reply_to_string
      (Resp.Value (Mutps_net.Client.payload ~key:barrier ~size:poller_value_size))
  in
  check_string "same-shard GET answered" want
    (read_exactly other (String.length want));
  let delivered, closed = read_until_closed reader ~timeout:10.0 in
  check_bool
    (Printf.sprintf "slow reader dropped (%d bytes delivered)" delivered)
    true closed;
  check_bool "before every reply was delivered" true
    (delivered < gets * String.length (Resp.reply_to_string (Resp.Value value)));
  Unix.close reader;
  ping_ok other;
  Unix.close other;
  Server.stop handle;
  ignore (Server.wait handle)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "native"
    [
      ( "deque",
        [
          Alcotest.test_case "fifo" `Quick test_deque_fifo;
          Alcotest.test_case "full" `Quick test_deque_full;
          Alcotest.test_case "concurrent exactly-once" `Quick
            test_deque_concurrent_exactly_once;
        ] );
      ( "sched",
        [
          Alcotest.test_case "fifo interleave" `Quick test_sched_fifo_interleave;
          Alcotest.test_case "spawn from fiber" `Quick
            test_sched_spawn_from_fiber;
          Alcotest.test_case "error propagates" `Quick
            test_sched_error_propagates;
          Alcotest.test_case "Fiber.Stop is clean" `Quick
            test_fiber_stop_is_clean;
          qt qcheck_sched_exactly_once;
          Alcotest.test_case "foreign spawn while local fibers yield" `Quick
            test_sched_foreign_spawn;
        ] );
      ( "nbio",
        [
          Alcotest.test_case "read" `Quick test_nbio_read;
          Alcotest.test_case "write to a vanished peer" `Quick
            test_nbio_write_gone;
          Alcotest.test_case "poll" `Quick test_nbio_poll;
          Alcotest.test_case "closed fd" `Quick test_nbio_closed_fd;
        ] );
      ( "resp",
        [
          Alcotest.test_case "command roundtrip" `Quick
            test_resp_command_roundtrip;
          Alcotest.test_case "incremental" `Quick test_resp_incremental;
          Alcotest.test_case "bad input" `Quick test_resp_bad_input;
          Alcotest.test_case "reply roundtrip" `Quick test_resp_reply_roundtrip;
          Alcotest.test_case "max-size value" `Quick test_resp_max_value;
          qt qcheck_resp_matches_reference;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "basekv sim = native" `Quick
            test_equivalence_basekv;
          Alcotest.test_case "uTPS sim = native split" `Quick
            test_equivalence_mutps;
          Alcotest.test_case "basekv sim = uTPS sim" `Quick
            test_equivalence_thread_models;
        ] );
      ( "server",
        [
          Alcotest.test_case "serve + loadgen" `Quick
            (fun () -> test_serve_loadgen ());
          Alcotest.test_case "ping and protocol errors" `Quick
            test_serve_ping_and_errors;
          Alcotest.test_case "pipelined writes, split" `Quick
            (test_poller_pipelined Server.Split);
          Alcotest.test_case "pipelined writes, basekv" `Quick
            (test_poller_pipelined (Server.Rtc_pool Kvs.Exec.Locked));
          Alcotest.test_case "64 loadgen connections" `Quick
            test_poller_many_conns;
          Alcotest.test_case "churn and vanishing clients" `Quick
            test_poller_churn;
          Alcotest.test_case "a client past FD_SETSIZE is served" `Quick
            test_poller_fd_setsize;
          Alcotest.test_case "pipelined writes, erpckv" `Quick
            (test_poller_pipelined (Server.Rtc_pool Kvs.Exec.Exclusive));
          Alcotest.test_case "unbounded frames refused" `Quick
            test_poller_bounded_frames;
          (* the ledger's setting: the poller and every shard fiber share
             one scheduler domain *)
          Alcotest.test_case "serve + loadgen, one domain" `Quick
            (test_serve_loadgen ~domains:1);
          Alcotest.test_case "pipelined writes, split, one domain" `Quick
            (test_poller_pipelined ~domains:1 Server.Split);
          Alcotest.test_case "pipelined writes, basekv, one domain" `Quick
            (test_poller_pipelined ~domains:1 (Server.Rtc_pool Kvs.Exec.Locked));
          Alcotest.test_case "slow reader dropped" `Quick
            test_poller_slow_reader;
          Alcotest.test_case "serve + loadgen over TCP" `Quick test_serve_tcp;
        ] );
    ]
