(** Minimal RESP-like wire protocol for the native server.

    Requests are RESP arrays of bulk strings ([GET k] / [SET k v] /
    [DEL k] / [PING]); keys are decimal int64 strings.  Replies: bulk
    value or [$-1] for GET, [+OK] for SET/DEL, [+PONG], [-ERR reason].
    Parsers are incremental: feed a growing buffer, get [`Need_more]
    until a full frame is present, then the frame and its byte length.
    A header no valid frame has is [`Bad] as soon as it is read: an
    integer line longer than [min_int] written out, or a bulk string
    longer than {!Mutps_queue.Request.max_size}.  So a buffer fed to
    them never needs to outgrow the largest valid frame. *)

type command =
  | Get of int64
  | Set of int64 * bytes
  | Del of int64
  | Ping

type reply =
  | Value of bytes
  | Nil
  | Ok_simple of string
  | Error of string

val encode_command : Buffer.t -> command -> unit
val encode_reply : Buffer.t -> reply -> unit
val reply_to_string : reply -> string

val reply_for_op : Mutps_queue.Request.kind -> bytes option -> reply
(** The KVS answer for an operation outcome — shared with the
    sim-vs-native equivalence test so both backends' byte streams are
    synthesized by the same function. *)

type 'a parse = [ `Ok of 'a * int | `Need_more | `Bad of string ]
(** [`Ok (frame, consumed)]: shift the buffer by [consumed]. *)

val parse_command : bytes -> len:int -> command parse
val parse_reply : bytes -> len:int -> reply parse
