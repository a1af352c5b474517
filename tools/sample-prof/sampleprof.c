/* LD_PRELOAD sampling profiler for boxes without perf.
 *
 *   gcc -O2 -shared -fPIC -o libsampleprof.so sampleprof.c
 *   SAMPLE_PROF_OUT=prof.out LD_PRELOAD=./libsampleprof.so ./program args...
 *   python3 report.py prof.out
 *
 * ITIMER_PROF fires SIGPROF every millisecond of CPU time the process burns
 * (all threads); the handler stores the interrupted instruction pointer.
 * At exit the samples and /proc/self/maps go to $SAMPLE_PROF_OUT (default
 * sample-prof.out). x86-64 Linux only.
 *
 * SAMPLE_PROF_AFTER_S=<seconds> delays the first sample until the process
 * has burnt that much CPU time, which for one busy thread is that long after
 * start: give it a little more than the program's set-up takes and the
 * set-up falls outside the sample. The dump records the window sampled.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 22) /* over an hour of one busy core at 1 kHz */

static unsigned long *samples;
static unsigned long taken;
static double after_s;

static double cpu_seconds(void) {
    struct timespec t;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return t.tv_sec + t.tv_nsec / 1e9;
}

static void on_sigprof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    unsigned long n = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (n < MAX_SAMPLES)
        samples[n] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    if (!samples)
        return;
    struct sigaction sa = {.sa_sigaction = on_sigprof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    /* it_value is the first expiry, it_interval every one after it. */
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    const char *after = getenv("SAMPLE_PROF_AFTER_S");
    after_s = after ? strtod(after, NULL) : 0;
    if (after_s >= 0.001) {
        every_ms.it_value.tv_sec = (time_t)after_s;
        every_ms.it_value.tv_usec = (suseconds_t)((after_s - (time_t)after_s) * 1e6);
    } else {
        after_s = 0; /* unset, unparsable or negative: sample from the start */
    }
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    double until_s = cpu_seconds();
    const char *path = getenv("SAMPLE_PROF_OUT");
    FILE *out = fopen(path ? path : "sample-prof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!samples || !out || !maps)
        return;
    fprintf(out, "window %.3f %.3f\n", after_s, until_s);
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "ip %lx\n", samples[i]);
    fclose(out);
}
