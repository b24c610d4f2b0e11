#include "proc_stats.h"

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace orbbench {

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

// Numeric value of the "<key>:" line of /proc/self/status, or -1.
long StatusField(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  const std::size_t key_len = std::strlen(key);
  char line[256];
  long value = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::strtol(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

ProcSample SampleProc() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.user_s = Seconds(ru.ru_utime);
  s.sys_s = Seconds(ru.ru_stime);
  s.context_switches = static_cast<std::uint64_t>(ru.ru_nvcsw) +
                       static_cast<std::uint64_t>(ru.ru_nivcsw);
  return s;
}

long ProcThreads() { return StatusField("Threads"); }

double PeakRssMb() {
  const long kb = StatusField("VmHWM");
  return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

bool RestartPeakRss() {
  // Freed chunks stay resident in glibc's per-thread arenas, and which
  // arena the next allocation lands in varies run to run.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;  // 5: reset VmHWM to VmRSS
  return std::fclose(f) == 0 && written;
}

}  // namespace orbbench
