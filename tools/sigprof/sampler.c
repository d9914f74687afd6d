/* An unbiased CPU profiler for any executable, loaded with LD_PRELOAD.

     gcc -O2 -shared -fPIC -o sampler.so tools/sigprof/sampler.c
     SIGPROF_OUT=prof.txt LD_PRELOAD=$PWD/sampler.so ./main.exe ...
     python3 tools/sigprof/resolve.py prof.txt

   A SIGPROF timer (ITIMER_PROF: process CPU time, every SIGPROF_US
   microseconds, default 500) interrupts the program wherever it is, and
   the handler records the interrupted instruction address from the
   signal's ucontext. An OCaml-level handler would instead run at the
   next poll point and charge the callback's time to the loop around it.
   At exit the samples are written to SIGPROF_OUT (default
   sigprof.<pid>.txt) with /proc/self/maps, so resolve.py can map them
   to symbols. x86-64 and aarch64 Linux only. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)

static unsigned long samples[MAX_SAMPLES];
static int n_samples;
static long interval_us = 500;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
  ucontext_t *uc = ctx;
  int i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
  (void)sig;
  (void)si;
  if (i >= MAX_SAMPLES) return;
#if defined(__x86_64__)
  samples[i] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  samples[i] = (unsigned long)uc->uc_mcontext.pc;
#else
#error "sampler.c: unsupported architecture"
#endif
}

static void set_timer(long us) {
  struct itimerval it;
  it.it_interval.tv_sec = us / 1000000;
  it.it_interval.tv_usec = us % 1000000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void sampler_start(void) {
  struct sigaction sa;
  const char *us = getenv("SIGPROF_US");
  if (us && atol(us) > 0) interval_us = atol(us);
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  set_timer(interval_us);
}

__attribute__((destructor)) static void sampler_dump(void) {
  char path[4096], line[4096];
  const char *out = getenv("SIGPROF_OUT");
  FILE *f, *maps;
  ssize_t len;
  int i, n;
  set_timer(0);
  if (!out) {
    snprintf(path, sizeof path, "sigprof.%d.txt", (int)getpid());
    out = path;
  }
  f = fopen(out, "w");
  if (!f) return;
  fprintf(f, "interval_us %ld\n", interval_us);
  len = readlink("/proc/self/exe", line, sizeof line - 1);
  if (len > 0) {
    line[len] = '\0';
    fprintf(f, "exe %s\n", line);
  }
  maps = fopen("/proc/self/maps", "r");
  if (maps) {
    while (fgets(line, sizeof line, maps)) fprintf(f, "map %s", line);
    fclose(maps);
  }
  n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
  for (i = 0; i < n; i++) fprintf(f, "pc %lx\n", samples[i]);
  fclose(f);
}
