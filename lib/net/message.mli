(** A client request in flight through the server.

    [req.buf] is the rx slot sequence number once the transport has placed
    the message (the [buf] field of §3.4's compact request); [value] carries
    the real put payload. *)

type t = {
  id : int;
  client : int;
  sent_at : int;
  target : int;  (** worker hint for per-thread transports (eRPC); -1 = any *)
  req : Mutps_queue.Request.t;
  value : bytes option;
}

val request_bytes : t -> int
(** Wire size: 16-byte header plus the put payload going in (responses add
    the returned data). *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = int
(** Requests in flight, keyed by message id or rx slot sequence number.
    Both are dense ints, so the key is its own hash: a lookup makes no C
    call.  No user iterates these tables, so their order is never seen. *)
