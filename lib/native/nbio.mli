(** Non-blocking socket I/O at syscall cost ([nbio_stubs.c]).

    One syscall per call, on an fd the caller has made [O_NONBLOCK]:
    {!read} fills a [bytes] in place and {!write} sends from one, with no
    blocking section, no copy through a stack buffer and no exception.
    {!poll} fills a readiness array instead of building lists, and has no
    [FD_SETSIZE] limit.  Each returns a count, or one of the negative
    codes below.  POSIX only: a file descriptor is an int. *)

val would_block : int
(** [EAGAIN], [EWOULDBLOCK] or [EINTR]: nothing to do now, try later. *)

val peer_gone : int
(** [EPIPE] or [ECONNRESET]: the other end has vanished. *)

val failed : int
(** Any other error ([EBADF], [ETIMEDOUT], [EHOSTUNREACH], ...). *)

val read : Unix.file_descr -> bytes -> int -> int -> int
(** [read fd buf off len] reads at most [len] bytes into [buf] at [off]:
    the byte count ([0] at end of file) or a code.  Raises
    [Invalid_argument] only if the range is outside [buf]. *)

val write : Unix.file_descr -> bytes -> int -> int -> int
(** [write fd buf off len] writes at most [len] bytes of [buf] from
    [off]: the byte count or a code.  Writing to a vanished peer raises
    [SIGPIPE] unless the process ignores it. *)

val poll : Unix.file_descr array -> int -> int array -> timeout_ms:int -> int
(** [poll fds n ready ~timeout_ms] polls [fds.(0 .. n-1)] for input and
    sets [ready.(i)] to [1] if [fds.(i)] is readable, hung up or in
    error (a read then says which), else [0]: the number ready, or a
    code.  [timeout_ms = 0] returns at once
    and never releases the runtime; any other value (negative: no limit)
    waits inside a blocking section. *)
