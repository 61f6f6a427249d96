(* Minimal RESP-like wire protocol for the native server.

   Requests are RESP arrays of bulk strings:
     *2\r\n$3\r\nGET\r\n$2\r\n42\r\n
   Commands: GET key | SET key value | DEL key | PING.  Keys are decimal
   int64 strings (the simulated KVS keyspace is int64).

   Replies:
     GET hit   $<len>\r\n<bytes>\r\n
     GET miss  $-1\r\n
     SET/DEL   +OK\r\n
     PING      +PONG\r\n
     error     -ERR <reason>\r\n

   The parsers are incremental over a growing buffer: [parse_command] /
   [parse_reply] return [`Need_more] until a full frame is present, so
   the server and loadgen can feed raw reads straight in. *)

type command =
  | Get of int64
  | Set of int64 * bytes
  | Del of int64
  | Ping

type reply =
  | Value of bytes
  | Nil
  | Ok_simple of string  (* OK, PONG *)
  | Error of string

let crlf = "\r\n"

(* --- encoding ------------------------------------------------------- *)

let encode_bulk buf s =
  Buffer.add_char buf '$';
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_string buf crlf;
  Buffer.add_string buf s;
  Buffer.add_string buf crlf

let encode_command buf cmd =
  let parts =
    match cmd with
    | Get key -> [ "GET"; Int64.to_string key ]
    | Set (key, value) -> [ "SET"; Int64.to_string key; Bytes.to_string value ]
    | Del key -> [ "DEL"; Int64.to_string key ]
    | Ping -> [ "PING" ]
  in
  Buffer.add_char buf '*';
  Buffer.add_string buf (string_of_int (List.length parts));
  Buffer.add_string buf crlf;
  List.iter (encode_bulk buf) parts

let encode_reply buf reply =
  match reply with
  | Value v ->
    Buffer.add_char buf '$';
    Buffer.add_string buf (string_of_int (Bytes.length v));
    Buffer.add_string buf crlf;
    Buffer.add_bytes buf v;
    Buffer.add_string buf crlf
  | Nil -> Buffer.add_string buf "$-1\r\n"
  | Ok_simple s ->
    Buffer.add_char buf '+';
    Buffer.add_string buf s;
    Buffer.add_string buf crlf
  | Error msg ->
    Buffer.add_string buf "-ERR ";
    Buffer.add_string buf msg;
    Buffer.add_string buf crlf

let reply_to_string reply =
  let buf = Buffer.create 64 in
  encode_reply buf reply;
  Buffer.contents buf

(* What the KVS answers for each operation — shared with the
   sim-vs-native equivalence test, which synthesizes the simulator side's
   byte stream through this same function. *)
let reply_for_op (kind : Mutps_queue.Request.kind) (value : bytes option) =
  match kind, value with
  | Get, Some v -> Value v
  | Get, None -> Nil
  | (Put | Delete), _ -> Ok_simple "OK"
  | Scan, _ -> Error "SCAN unsupported on the wire"

(* --- incremental parsing -------------------------------------------- *)

type 'a parse = [ `Ok of 'a * int | `Need_more | `Bad of string ]

(* Find "\r\n" starting at [pos]; [None] if incomplete. *)
let find_crlf s ~pos ~len =
  let i = ref pos in
  let found = ref (-1) in
  while !found < 0 && !i + 1 < len do
    if Bytes.get s !i = '\r' && Bytes.get s (!i + 1) = '\n' then found := !i
    else incr i
  done;
  if !found < 0 then None else Some !found

(* The longest integer header a frame may carry: the digits of [min_int]
   and its sign.  Past that a missing CRLF is a malformed frame, not a
   short read, so a peer cannot make the reader buffer without bound. *)
let max_int_len = String.length (string_of_int min_int)

let parse_int_line s ~pos ~len : (int * int) parse =
  let window = pos + max_int_len + 2 in
  match find_crlf s ~pos ~len:(min len window) with
  | None -> if len >= window then `Bad "integer header too long" else `Need_more
  | Some e -> (
    match int_of_string_opt (Bytes.sub_string s pos (e - pos)) with
    | Some n -> `Ok ((n, e + 2), e + 2)
    | None -> `Bad "expected integer")

(* $<n>\r\n<payload>\r\n  at [pos]; yields payload and next offset. *)
let parse_bulk s ~pos ~len : (string * int) parse =
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

(* One command frame starting at offset 0 of [s] (first [len] bytes).
   [`Ok (cmd, consumed)] lets the caller shift its buffer. *)
let parse_command s ~len : command parse =
  if len = 0 then `Need_more
  else if Bytes.get s 0 <> '*' then `Bad "expected array"
  else
    match parse_int_line s ~pos:1 ~len with
    | (`Need_more | `Bad _) as r -> r
    | `Ok ((argc, pos0), _) ->
      if argc < 1 || argc > 3 then `Bad "wrong number of arguments"
      else begin
        let args = Array.make argc "" in
        let rec collect i pos : command parse =
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
        and finish consumed : command parse =
          let cmd = String.uppercase_ascii args.(0) in
          match cmd, argc with
          | "PING", 1 -> `Ok (Ping, consumed)
          | "GET", 2 -> (
            match key_of 1 with
            | Result.Ok k -> `Ok (Get k, consumed)
            | Result.Error m -> `Bad m)
          | "DEL", 2 -> (
            match key_of 1 with
            | Result.Ok k -> `Ok (Del k, consumed)
            | Result.Error m -> `Bad m)
          | "SET", 3 -> (
            match key_of 1 with
            | Result.Ok k -> `Ok (Set (k, Bytes.of_string args.(2)), consumed)
            | Result.Error m -> `Bad m)
          | ("PING" | "GET" | "DEL" | "SET"), _ ->
            `Bad ("wrong number of arguments for " ^ cmd)
          | _ -> `Bad ("unknown command " ^ cmd)
        in
        collect 0 pos0
      end

(* One reply frame starting at offset 0 (loadgen side). *)
let parse_reply s ~len : reply parse =
  if len = 0 then `Need_more
  else
    match Bytes.get s 0 with
    | '+' -> (
      match find_crlf s ~pos:1 ~len with
      | None -> `Need_more
      | Some e -> `Ok (Ok_simple (Bytes.sub_string s 1 (e - 1)), e + 2))
    | '-' -> (
      match find_crlf s ~pos:1 ~len with
      | None -> `Need_more
      | Some e ->
        let m = Bytes.sub_string s 1 (e - 1) in
        (* strip the class marker the encoder prepends, so
           encode/parse/encode is stable *)
        let m =
          if String.length m >= 4 && String.sub m 0 4 = "ERR " then
            String.sub m 4 (String.length m - 4)
          else m
        in
        `Ok (Error m, e + 2))
    | '$' -> (
      match parse_int_line s ~pos:1 ~len with
      | `Need_more -> `Need_more
      | `Bad m -> `Bad m
      | `Ok ((n, body), _) ->
        if n = -1 then `Ok (Nil, body)
        else if n < -1 then `Bad "negative bulk length"
        else if n > Mutps_queue.Request.max_size then `Bad "bulk string too long"
        else if body + n + 2 > len then `Need_more
        else `Ok (Value (Bytes.sub s body n), body + n + 2))
    | c -> `Bad (Printf.sprintf "unexpected reply byte %C" c)
