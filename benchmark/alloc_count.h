// The benchmark's own heap-allocation counter (common.allocs_per_op).
// alloc_count.cc replaces the global operator new for the bench_orb binary
// only; the libraries under test are compiled unchanged.
#pragma once

#include <cstdint>

namespace orbbench {

// Calls to any form of operator new since process start.
std::uint64_t AllocCount();

}  // namespace orbbench
