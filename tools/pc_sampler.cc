// A wall-clock program-counter sampler, loaded into a program with
// LD_PRELOAD (x86-64 Linux). tools/sample_profile.py builds the command
// line and reads what it writes; see there for usage.
//
// At load it arms a CLOCK_MONOTONIC timer that raises SIGPROF 10,000 times
// a second. Each signal records the interrupted program counter and the
// word at the stack pointer, which is the return address when the program
// was stopped inside a leaf function that keeps no frame (glibc's memcpy
// and memmove). At exit it writes every sample, then the program's
// /proc/self/maps, to the file named by PC_SAMPLER_OUT:
//
//   pc_sampler v1 hz=10000 samples=<n> dropped=<n>
//   <pc hex> <word at sp hex>          (one line per sample)
//   maps
//   <the lines of /proc/self/maps>
//
// It needs no perf_event_open, only a POSIX timer and a signal handler, so
// it runs where the kernel forbids performance counters. It samples the
// thread the process-directed signal lands on; the simulator and its
// workloads are single-threaded.
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr long kHz = 10000;
constexpr std::size_t kMaxSamples = std::size_t{1} << 23;  // ~14 min at kHz

struct Sample {
  std::uint64_t pc;
  std::uint64_t sp_word;
};

Sample* g_samples = nullptr;  // kMaxSamples, mapped lazily by the kernel
std::atomic<std::size_t> g_count{0};
std::atomic<std::size_t> g_dropped{0};
timer_t g_timer{};
bool g_armed = false;

void on_sigprof(int, siginfo_t*, void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
  const auto pc = static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto sp = static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RSP]);
  const std::size_t i = g_count.load(std::memory_order_relaxed);
  if (i == kMaxSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uint64_t sp_word = 0;
  std::memcpy(&sp_word, reinterpret_cast<const void*>(sp), sizeof sp_word);
  g_samples[i] = {pc, sp_word};
  g_count.store(i + 1, std::memory_order_relaxed);
}

__attribute__((constructor)) void start() {
  if (std::getenv("PC_SAMPLER_OUT") == nullptr) return;
  void* mem = mmap(nullptr, kMaxSamples * sizeof(Sample), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  g_samples = static_cast<Sample*>(mem);

  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;

  sigevent ev{};
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &g_timer) != 0) return;
  itimerspec period{};
  period.it_interval.tv_nsec = 1'000'000'000 / kHz;
  period.it_value = period.it_interval;
  g_armed = timer_settime(g_timer, 0, &period, nullptr) == 0;
}

__attribute__((destructor)) void finish() {
  if (!g_armed) return;
  timer_delete(g_timer);  // no signal lands while the file is written
  g_armed = false;
  std::FILE* out = std::fopen(std::getenv("PC_SAMPLER_OUT"), "w");
  if (out == nullptr) return;
  const std::size_t n = g_count.load();
  std::fprintf(out, "pc_sampler v1 hz=%ld samples=%zu dropped=%zu\n", kHz, n,
               g_dropped.load());
  for (std::size_t i = 0; i < n; ++i) {
    std::fprintf(out, "%llx %llx\n",
                 static_cast<unsigned long long>(g_samples[i].pc),
                 static_cast<unsigned long long>(g_samples[i].sp_word));
  }
  std::fputs("maps\n", out);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, maps)) > 0) {
      std::fwrite(buf, 1, got, out);
    }
    std::fclose(maps);
  }
  std::fclose(out);
  munmap(g_samples, kMaxSamples * sizeof(Sample));
}

}  // namespace
