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

(* The first "\r\n" at or after [pos] that ends before [lim], or -1. *)
let crlf_index s ~pos ~lim =
  let i = ref pos in
  while
    !i + 1 < lim && not (Bytes.get s !i = '\r' && Bytes.get s (!i + 1) = '\n')
  do
    incr i
  done;
  if !i + 1 < lim then !i else -1

(* The longest integer header a frame may carry: the digits of [min_int]
   and its sign.  Past that a missing CRLF is a malformed frame, not a
   short read, so a peer cannot make the reader buffer without bound. *)
let max_int_len = String.length (string_of_int min_int)

(* The parsers read a frame where it lies: no substring, argument array
   or upper-case copy.  A short frame raises [Short] and a malformed one
   [Malformed reason], both caught at the parser's entry. *)
exception Short
exception Malformed of string

let malformed reason = raise_notrace (Malformed reason)

(* The CRLF ending the integer header at [pos], at most [max_int_len]
   bytes on. *)
let header_end s ~pos ~len =
  let window = pos + max_int_len + 2 in
  let e = crlf_index s ~pos ~lim:(min len window) in
  if e >= 0 then e
  else if len >= window then malformed "integer header too long"
  else raise_notrace Short

(* [s.[pos .. e-1]] read in place when it is [-?[0-9]{1,18}], which no
   int overflows; [min_int], which no such string spells, for any other
   spelling. *)
let plain_decimal s ~pos ~e =
  let neg = pos < e && Bytes.get s pos = '-' in
  let first = if neg then pos + 1 else pos in
  if e - first < 1 || e - first > 18 then min_int
  else begin
    let v = ref 0 and i = ref first in
    while !i < e && Bytes.get s !i >= '0' && Bytes.get s !i <= '9' do
      v := (10 * !v) + Char.code (Bytes.get s !i) - Char.code '0';
      incr i
    done;
    if !i < e then min_int else if neg then - !v else !v
  end

(* The integer header [s.[pos .. e-1]]: any spelling but plain decimal
   goes through [int_of_string_opt] on a copy. *)
let header_int s ~pos ~e =
  let v = plain_decimal s ~pos ~e in
  if v <> min_int then v
  else
    match int_of_string_opt (Bytes.sub_string s pos (e - pos)) with
    | Some n -> n
    | None -> malformed "expected integer"

(* The CRLF ending the header of the bulk string at [pos]; its payload
   starts 2 bytes later. *)
let bulk_header s ~pos ~len =
  if pos >= len then raise_notrace Short;
  if Bytes.get s pos <> '$' then malformed "expected bulk string";
  header_end s ~pos:(pos + 1) ~len

(* The payload length of the bulk string at [pos], whose header ends at
   [e], once the whole bulk string is in. *)
let bulk_length s ~pos ~e ~len =
  let n = header_int s ~pos:(pos + 1) ~e in
  if n < 0 then malformed "negative bulk length";
  if n > Mutps_queue.Request.max_size then malformed "bulk string too long";
  let body = e + 2 in
  if body + n + 2 > len then raise_notrace Short;
  if Bytes.get s (body + n) <> '\r' || Bytes.get s (body + n + 1) <> '\n' then
    malformed "bulk string missing terminator";
  n

(* [s.[pos .. pos+n-1]] is [name], an upper-case command, in any case. *)
let is_name s ~pos ~n name =
  n = String.length name
  &&
  let i = ref 0 in
  while !i < n && Char.uppercase_ascii (Bytes.get s (pos + !i)) = name.[!i] do
    incr i
  done;
  !i = n

(* A key spelled [s.[pos .. pos+n-1]]: any spelling but plain decimal
   goes through [Int64.of_string_opt] on a copy. *)
let key_at s ~pos ~n =
  let v = plain_decimal s ~pos ~e:(pos + n) in
  if v <> min_int then Int64.of_int v
  else
    match Int64.of_string_opt (Bytes.sub_string s pos n) with
    | Some k -> k
    | None -> malformed "key must be a decimal integer"

let wrong_arity name = malformed ("wrong number of arguments for " ^ name)

let command_frame s ~len =
  if len = 0 then raise_notrace Short;
  if Bytes.get s 0 <> '*' then malformed "expected array";
  let e = header_end s ~pos:1 ~len in
  let argc = header_int s ~pos:1 ~e in
  if argc < 1 || argc > 3 then malformed "wrong number of arguments";
  (* every argument is framed before any is read: the name, key and value
     payloads' offsets and lengths *)
  let pos = ref (e + 2) in
  let name = ref 0 and name_n = ref 0 and key = ref 0 and key_n = ref 0 in
  let value = ref 0 and value_n = ref 0 in
  for i = 0 to argc - 1 do
    let e = bulk_header s ~pos:!pos ~len in
    let n = bulk_length s ~pos:!pos ~e ~len in
    (match i with
    | 0 -> name := e + 2; name_n := n
    | 1 -> key := e + 2; key_n := n
    | _ -> value := e + 2; value_n := n);
    pos := e + n + 4
  done;
  let name = !name and n = !name_n in
  let cmd =
    if is_name s ~pos:name ~n "GET" then
      if argc = 2 then Get (key_at s ~pos:!key ~n:!key_n) else wrong_arity "GET"
    else if is_name s ~pos:name ~n "SET" then
      if argc = 3 then
        let k = key_at s ~pos:!key ~n:!key_n in
        Set (k, Bytes.sub s !value !value_n)
      else wrong_arity "SET"
    else if is_name s ~pos:name ~n "DEL" then
      if argc = 2 then Del (key_at s ~pos:!key ~n:!key_n) else wrong_arity "DEL"
    else if is_name s ~pos:name ~n "PING" then
      if argc = 1 then Ping else wrong_arity "PING"
    else
      malformed
        ("unknown command " ^ String.uppercase_ascii (Bytes.sub_string s name n))
  in
  (cmd, !pos)

(* One command frame starting at offset 0 of [s] (first [len] bytes).
   [`Ok (cmd, consumed)] lets the caller shift its buffer. *)
let parse_command s ~len : command parse =
  match command_frame s ~len with
  | frame -> `Ok frame
  | exception Short -> `Need_more
  | exception Malformed reason -> `Bad reason

(* One reply frame starting at offset 0 of [s] (loadgen side).  A bulk
   value's terminator is not checked. *)
let reply_frame s ~len =
  if len = 0 then raise_notrace Short;
  match Bytes.get s 0 with
  | ('+' | '-') as c ->
    let e = crlf_index s ~pos:1 ~lim:len in
    if e < 0 then raise_notrace Short;
    let m = Bytes.sub_string s 1 (e - 1) in
    if c = '+' then (Ok_simple m, e + 2)
    else if String.length m >= 4 && String.sub m 0 4 = "ERR " then
      (* strip the class marker the encoder prepends, so
         encode/parse/encode is stable *)
      (Error (String.sub m 4 (String.length m - 4)), e + 2)
    else (Error m, e + 2)
  | '$' ->
    let e = header_end s ~pos:1 ~len in
    let n = header_int s ~pos:1 ~e and body = e + 2 in
    if n = -1 then (Nil, body)
    else if n < -1 then malformed "negative bulk length"
    else if n > Mutps_queue.Request.max_size then malformed "bulk string too long"
    else if body + n + 2 > len then raise_notrace Short
    else (Value (Bytes.sub s body n), body + n + 2)
  | c -> malformed (Printf.sprintf "unexpected reply byte %C" c)

let parse_reply s ~len : reply parse =
  match reply_frame s ~len with
  | frame -> `Ok frame
  | exception Short -> `Need_more
  | exception Malformed reason -> `Bad reason
