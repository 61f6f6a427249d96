(** A client request in flight through the server.

    [req.buf] is the rx slot sequence number once the transport has placed
    the message (the [buf] field of §3.4's compact request); [value] carries
    the real put payload. *)

module Request = Mutps_queue.Request

type t = {
  id : int;
  client : int;
  sent_at : int;
  target : int;  (** worker hint for per-thread transports (eRPC); -1 = any *)
  req : Request.t;
  value : bytes option;
}

(* wire sizes: 16-byte header plus the put payload going in; responses add
   the returned data *)
let request_bytes t =
  16 + (match t.value with Some v -> Bytes.length v | None -> 0)

let pp fmt t =
  Format.fprintf fmt "msg%d[client=%d %a]" t.id t.client Request.pp t.req

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i
end)
