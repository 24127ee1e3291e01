/* Monotonic nanoseconds for Stt_obs.Mono.

   CLOCK_MONOTONIC never goes backwards across NTP steps, unlike
   Unix.gettimeofday, so spans, deadlines, serve times and the uptime
   that protocol v5 Health reports all run on it.  Fits an OCaml int
   for ~146 years of uptime. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

#include <time.h>

CAMLprim value stt_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
