/* Edge-triggered epoll bindings for Stt_net.Evloop.

   The OCaml Unix library's select(2) wrapper rebuilds three fd lists
   and rescans the whole watched set on every wakeup — O(n) per event
   and capped at FD_SETSIZE (~1024 fds).  These stubs expose just enough
   of epoll(7) for the server's IO loop: create, ctl, and a wait that
   fills two preallocated OCaml arrays (fds and readiness bits) so the
   steady-state loop allocates nothing.

   Errors come back as negative errno values rather than exceptions:
   the OCaml layer decides which failures are fatal (ADD on a fresh fd)
   and which are routine (DEL racing a close).

   Everything is gated on __linux__; elsewhere the stubs compile to an
   "unavailable" backend and Evloop falls back to select. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/threads.h>

#ifdef __linux__

#include <errno.h>
#include <string.h>
#include <unistd.h>
#include <sys/epoll.h>

CAMLprim value stt_epoll_available(value unit)
{
  (void)unit;
  return Val_true;
}

CAMLprim value stt_epoll_create(value unit)
{
  int fd;
  (void)unit;
  fd = epoll_create1(EPOLL_CLOEXEC);
  return Val_long(fd >= 0 ? fd : -errno);
}

CAMLprim value stt_epoll_close(value vep)
{
  close(Int_val(vep));
  return Val_unit;
}

/* interest bits shared with the OCaml layer: 1 = IN, 2 = OUT, 4 = ET */
static uint32_t events_of_bits(long bits)
{
  uint32_t ev = 0;
  if (bits & 1) ev |= EPOLLIN;
  if (bits & 2) ev |= EPOLLOUT;
  if (bits & 4) ev |= EPOLLET;
  return ev;
}

/* op: 0 = ADD, 1 = MOD, 2 = DEL */
CAMLprim value stt_epoll_ctl(value vep, value vop, value vfd, value vbits)
{
  struct epoll_event ev;
  static const int ops[3] = { EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLL_CTL_DEL };
  long op = Long_val(vop);
  int r;
  if (op < 0 || op > 2) return Val_long(-EINVAL);
  memset(&ev, 0, sizeof ev);
  ev.events = events_of_bits(Long_val(vbits));
  ev.data.fd = Int_val(vfd);
  r = epoll_ctl(Int_val(vep), ops[op], Int_val(vfd), &ev);
  return Val_long(r == 0 ? 0 : -errno);
}

#define STT_MAX_EVENTS 1024

/* Fills vfds.(i) with the i-th ready fd and vbits.(i) with its
   readiness (1 = readable, 2 = writable; error/hangup surfaces as both,
   so the read path observes the EOF).  Returns the event count, 0 on
   timeout or EINTR, or a negative errno.  The runtime lock is released
   around the blocking wait; the arrays are only touched after it is
   reacquired (both hold immediates, so plain Field stores are safe). */
CAMLprim value stt_epoll_wait(value vep, value vtimeout, value vfds,
                              value vbits)
{
  CAMLparam4(vep, vtimeout, vfds, vbits);
  struct epoll_event evs[STT_MAX_EVENTS];
  int ep = Int_val(vep);
  int timeout = Int_val(vtimeout);
  long cap = (long)Wosize_val(vfds);
  int max, n, err, i;
  if ((long)Wosize_val(vbits) < cap) cap = (long)Wosize_val(vbits);
  max = cap < STT_MAX_EVENTS ? (int)cap : STT_MAX_EVENTS;
  if (max <= 0) CAMLreturn(Val_long(-EINVAL));
  caml_release_runtime_system();
  n = epoll_wait(ep, evs, max, timeout);
  err = errno;
  caml_acquire_runtime_system();
  if (n < 0) CAMLreturn(Val_long(err == EINTR ? 0 : -err));
  for (i = 0; i < n; i++) {
    long bits = 0;
    uint32_t e = evs[i].events;
    if (e & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP)) bits |= 1;
    if (e & (EPOLLOUT | EPOLLERR | EPOLLHUP)) bits |= 2;
    Field(vfds, i) = Val_long(evs[i].data.fd);
    Field(vbits, i) = Val_long(bits);
  }
  CAMLreturn(Val_long(n));
}

#else /* !__linux__ */

#include <errno.h>

CAMLprim value stt_epoll_available(value unit)
{
  (void)unit;
  return Val_false;
}

CAMLprim value stt_epoll_create(value unit)
{
  (void)unit;
  return Val_long(-ENOSYS);
}

CAMLprim value stt_epoll_close(value vep)
{
  (void)vep;
  return Val_unit;
}

CAMLprim value stt_epoll_ctl(value vep, value vop, value vfd, value vbits)
{
  (void)vep; (void)vop; (void)vfd; (void)vbits;
  return Val_long(-ENOSYS);
}

CAMLprim value stt_epoll_wait(value vep, value vtimeout, value vfds,
                              value vbits)
{
  (void)vep; (void)vtimeout; (void)vfds; (void)vbits;
  return Val_long(-ENOSYS);
}

#endif /* __linux__ */
