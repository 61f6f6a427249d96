(* Bindings to nbio_stubs.c; see nbio.mli. *)

let would_block = -1
let peer_gone = -2
let failed = -3

external unsafe_read : Unix.file_descr -> bytes -> int -> int -> int
  = "mutps_nbio_read"
[@@noalloc]

external unsafe_write : Unix.file_descr -> bytes -> int -> int -> int
  = "mutps_nbio_write"
[@@noalloc]

external unsafe_poll : Unix.file_descr array -> int -> int array -> int -> int
  = "mutps_nbio_poll"

let read fd buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Nbio.read";
  unsafe_read fd buf off len

let write fd buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Nbio.write";
  unsafe_write fd buf off len

let poll fds n ready ~timeout_ms =
  if n < 0 || n > Array.length fds || n > Array.length ready then
    invalid_arg "Nbio.poll";
  unsafe_poll fds n ready timeout_ms
