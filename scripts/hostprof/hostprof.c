// LD_PRELOAD sampling profiler for the single-threaded simulator binaries.
//
// Time (the default): SIGPROF fires HOSTPROF_HZ times per CPU-second
// (default 250); the handler walks the frame-pointer chain of the
// interrupted main thread and stores raw return addresses.
//
// Allocations (HOSTPROF_ALLOC_EVERY=N): no timer; every Nth call to
// malloc, calloc or realloc walks the chain from the caller of that
// function instead, so a sample is one allocation's call site. The
// wrappers forward to glibc's __libc_* entry points.
//
// At exit the samples go to $HOSTPROF_OUT (default hostprof.raw) and the
// executable mappings to $HOSTPROF_OUT.maps, for hostprof.py to symbolise.
// Needs a binary built with RUSTFLAGS="-C force-frame-pointers=yes" and
// this file built with -fno-omit-frame-pointer; see scripts/hostprof.sh.
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 64
#define CAP ((64u << 20) / sizeof(uintptr_t))

static uintptr_t *buf; // [depth, pc, return addresses...] per sample
static size_t used;
static uintptr_t stack_hi, exe_base;
static unsigned long alloc_every, alloc_calls; // allocation mode when > 0

// Store one sample: `pc`, then the return addresses of the frame chain
// that starts at `fp` (nothing above `lo` is a frame of this stack).
static void record(uintptr_t pc, uintptr_t fp, uintptr_t lo) {
    if (!buf || used + DEPTH + 2 > CAP)
        return;
    size_t at = used++;
    size_t depth = 0;
    buf[used++] = pc;
    depth++;
    // A frame is [saved rbp][return address]; frames only move up the stack.
    while (depth < DEPTH && fp >= lo && fp + 16 <= stack_hi && (fp & 7) == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0];
        uintptr_t ret = ((uintptr_t *)fp)[1];
        if (ret < 4096)
            break;
        buf[used++] = ret;
        depth++;
        if (next <= fp)
            break;
        lo = fp;
        fp = next;
    }
    buf[at] = depth;
}

static void on_prof(int sig, siginfo_t *si, void *ucv) {
    (void)sig;
    (void)si;
    ucontext_t *uc = ucv;
    record(uc->uc_mcontext.gregs[REG_RIP], uc->uc_mcontext.gregs[REG_RBP],
           uc->uc_mcontext.gregs[REG_RSP]);
}

// In allocation mode, every Nth call records its caller's chain: the
// return address out of the wrapper, then the frames above it. Every
// entry is a return address, which hostprof.py --allocs accounts for.
#define SAMPLE_ALLOC()                                                      \
    do {                                                                    \
        if (alloc_every && ++alloc_calls % alloc_every == 0) {              \
            uintptr_t *fp = __builtin_frame_address(0);                     \
            record((uintptr_t)__builtin_return_address(0), fp[0], (uintptr_t)fp); \
        }                                                                   \
    } while (0)

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

void *malloc(size_t n) {
    SAMPLE_ALLOC();
    return __libc_malloc(n);
}

void *calloc(size_t k, size_t n) {
    SAMPLE_ALLOC();
    return __libc_calloc(k, n);
}

void *realloc(void *p, size_t n) {
    SAMPLE_ALLOC();
    return __libc_realloc(p, n);
}

static void dump(void) {
    alloc_every = 0; // what dump itself allocates is not the program's
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    if (!path)
        path = "hostprof.raw";
    FILE *f = fopen(path, "wb");
    if (!f)
        return;
    fwrite(&exe_base, sizeof exe_base, 1, f);
    fwrite(buf, sizeof(uintptr_t), used, f);
    fclose(f);
    char mpath[4096], line[8192];
    snprintf(mpath, sizeof mpath, "%s.maps", path);
    FILE *in = fopen("/proc/self/maps", "r"), *out = fopen(mpath, "w");
    while (in && out && fgets(line, sizeof line, in))
        if (strstr(line, " r-xp "))
            fputs(line, out);
    if (in)
        fclose(in);
    if (out)
        fclose(out);
}

__attribute__((constructor)) static void init(void) {
    char exe[4096], line[8192];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0)
        return;
    exe[n] = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps)) {
        uintptr_t a, b;
        if (sscanf(line, "%lx-%lx", &a, &b) != 2)
            continue;
        if (!exe_base && strstr(line, exe))
            exe_base = a;
        if (strstr(line, "[stack]"))
            stack_hi = b;
    }
    if (maps)
        fclose(maps);
    uintptr_t *b = malloc(CAP * sizeof(uintptr_t));
    if (!b || !stack_hi)
        return;
    atexit(dump);
    const char *every = getenv("HOSTPROF_ALLOC_EVERY");
    alloc_every = every ? strtoul(every, NULL, 10) : 0;
    buf = b;
    if (alloc_every)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    const char *hz = getenv("HOSTPROF_HZ");
    long rate = hz ? atol(hz) : 250;
    if (rate <= 0)
        rate = 250;
    struct itimerval it = {{0, 1000000 / rate}, {0, 1000000 / rate}};
    setitimer(ITIMER_PROF, &it, NULL);
}
