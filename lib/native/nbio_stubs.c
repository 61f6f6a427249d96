/* Non-blocking socket I/O for the native poller and load generator.

   Three calls, each one syscall: read(2) into an OCaml [bytes] at an
   offset, write(2) from one, and poll(2) over an array of fds.  Every
   fd handed to [read] and [write] is O_NONBLOCK, so neither can wait:
   they run without a blocking section, straight into and out of the
   caller's buffer, and [read]/[write] are [@@noalloc] externals.
   [poll] releases the runtime only when asked to wait (a timeout other
   than 0); a zero-timeout poll, the server's every turn, does not.

   Each call returns a byte count (or, for [poll], the number of ready
   fds), or one of three codes, which Nbio mirrors:
     -1  would block, or interrupted: try again later
     -2  the peer is gone (EPIPE, ECONNRESET)
     -3  any other error
   No call raises.  A file descriptor is an OCaml int (POSIX only). */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/signals.h>

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <unistd.h>

#define NBIO_AGAIN (-1)
#define NBIO_GONE (-2)
#define NBIO_FAILED (-3)

static value nbio_code(int err)
{
  switch (err) {
  case EAGAIN:
#if EWOULDBLOCK != EAGAIN
  case EWOULDBLOCK:
#endif
  case EINTR:
    return Val_int(NBIO_AGAIN);
  case EPIPE:
  case ECONNRESET:
    return Val_int(NBIO_GONE);
  default:
    return Val_int(NBIO_FAILED);
  }
}

/* Bounds are checked by the OCaml side. */
value mutps_nbio_read(value fd, value buf, value off, value len)
{
  ssize_t n = read(Int_val(fd), Bytes_val(buf) + Long_val(off), Long_val(len));
  return n >= 0 ? Val_long(n) : nbio_code(errno);
}

value mutps_nbio_write(value fd, value buf, value off, value len)
{
  ssize_t n =
      write(Int_val(fd), Bytes_val(buf) + Long_val(off), Long_val(len));
  return n >= 0 ? Val_long(n) : nbio_code(errno);
}

/* Poll the first [n] fds of [fds] for input; [ready.(i)] becomes 1 if fd
   [i] is readable, hung up or in error (a read then says which), else 0.
   Returns how many are ready. */
#define NBIO_STACK_FDS 256

value mutps_nbio_poll(value fds, value nv, value ready, value timeout_ms)
{
  CAMLparam2(fds, ready);
  long n = Long_val(nv);
  int timeout = Int_val(timeout_ms);
  struct pollfd stack[NBIO_STACK_FDS];
  struct pollfd *p = stack;
  int r, err;
  long i;

  if (n > NBIO_STACK_FDS) {
    p = malloc(n * sizeof *p);
    if (p == NULL) CAMLreturn(Val_int(NBIO_FAILED));
  }
  for (i = 0; i < n; i++) {
    p[i].fd = Int_val(Field(fds, i));
    p[i].events = POLLIN;
    p[i].revents = 0;
  }
  if (timeout == 0) {
    r = poll(p, n, 0);
    err = errno;
  } else {
    caml_enter_blocking_section();
    r = poll(p, n, timeout);
    err = errno;
    caml_leave_blocking_section();
  }
  if (r >= 0)
    /* immediates into an int array: no write barrier needed */
    for (i = 0; i < n; i++) Field(ready, i) = Val_int(p[i].revents != 0);
  if (p != stack) free(p);
  CAMLreturn(r >= 0 ? Val_int(r) : nbio_code(err));
}
