// Order statistics: exact ones over small sample vectors, and a fine
// histogram for the per-call samples of a run.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace orbbench {

// The p-quantile (0 <= p <= 1) of sorted samples, interpolating linearly
// between the closest ranks. 0 when empty.
template <typename T>
double SortedQuantile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

template <typename T>
double Quantile(std::vector<T> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return SortedQuantile(samples, p);
}

template <typename T>
double Median(std::vector<T> samples) {
  return Quantile(std::move(samples), 0.5);
}

// Log-linear histogram of nanosecond values: exact below 2^kSubBits, then
// 2^kSubBits buckets per octave (width <= 1/2048 of the value). Its memory
// is fixed, so the benchmark's own footprint does not grow with the
// number of calls and leak throughput into peak_rss_mb. Quantiles
// interpolate inside the bucket, so they move with every sample rather
// than snapping to a bucket edge.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 11;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxBits = 40;  // clamps at ~18 minutes
  static constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1)
                                          << kSubBits;

  Histogram() : counts_(kBuckets) {}

  void Add(std::uint64_t ns) {
    ++counts_[Index(std::min(ns, (std::uint64_t{1} << kMaxBits) - 1))];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  // The p-quantile in nanoseconds, ranked like SortedQuantile; 0 if empty.
  double Quantile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = p * static_cast<double>(count_ - 1);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c != 0 && rank < static_cast<double>(before + c)) {
        const double frac = (rank - static_cast<double>(before) + 0.5) /
                            static_cast<double>(c);
        return static_cast<double>(Lower(i)) +
               frac * static_cast<double>(Width(i));
      }
      before += c;
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  static std::size_t Index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned msb = std::bit_width(v) - 1;
    const unsigned shift = msb - kSubBits;
    return ((msb - kSubBits + 1) << kSubBits) +
           static_cast<std::size_t>((v >> shift) & (kSub - 1));
  }
  static std::uint64_t Lower(std::size_t index) {
    const std::size_t block = index >> kSubBits;
    const std::uint64_t sub = index & (kSub - 1);
    return block == 0 ? sub : (kSub + sub) << (block - 1);
  }
  static std::uint64_t Width(std::size_t index) {
    const std::size_t block = index >> kSubBits;
    return block == 0 ? 1 : std::uint64_t{1} << (block - 1);
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
};

}  // namespace orbbench
