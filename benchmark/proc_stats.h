// Process-wide counters the benchmark reads from the kernel: CPU time and
// context switches from getrusage, thread count and peak RSS from
// /proc/self/status.
#pragma once

#include <cstdint>

namespace orbbench {

struct ProcSample {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t context_switches = 0;  // voluntary + involuntary
};

ProcSample SampleProc();

// Current thread count of the process ("Threads:"), or -1 if unreadable.
long ProcThreads();

// Peak resident set size in MiB ("VmHWM:"), or -1 if unreadable.
double PeakRssMb();

// Returns freed heap memory to the kernel and restarts the peak-RSS count
// from the current RSS, so PeakRssMb() covers only what follows. False if
// the kernel refused the reset (the peak then covers the whole process).
bool RestartPeakRss();

}  // namespace orbbench
