/* CPU time of the calling thread, in nanoseconds. Under a hypervisor that
   reports steal time, the kernel leaves out the time the virtual CPU was
   descheduled by the host, which wall-clock time would count. */

#include <time.h>
#include <caml/mlvalues.h>

value bench_thread_cputime_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
