// Exact-sample statistics for the benchmark: nearest-rank latency
// percentiles in which failed ops count as infinitely slow, the failure
// ratio, medians, and an interpolated percentile of a runtime
// LatencyHistogram (whose raw buckets step by up to 12.5%).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/latency_histogram.h"

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// One percentile with the size of the distribution it was taken from.
struct Percentile {
  double value = 0;           // NaN when there are no samples
  std::uint64_t samples = 0;  // completed + failed ops
  std::uint64_t beyond = 0;   // samples ranked above this percentile
};

// Latency samples of one op kind, in microseconds. A failed op (busy,
// error, never answered) has missed every latency limit, so it enters the
// distribution as +inf instead of being dropped.
//
// Samples are kept exactly at 1 us resolution: a count per whole
// microsecond up to kDenseLimitUs, and each slower sample individually.
// Memory stays fixed however many ops a run completes, so the benchmark's
// own bookkeeping does not move the process's peak RSS with throughput.
class LatencySamples {
 public:
  static constexpr std::size_t kDenseLimitUs = 100'000;

  void Add(double us) {
    if (us < 0) us = 0;
    if (us < static_cast<double>(kDenseLimitUs)) {
      if (dense_.empty()) dense_.assign(kDenseLimitUs, 0);
      ++dense_[static_cast<std::size_t>(us)];
    } else {
      sparse_.push_back(us);
      sorted_ = false;
    }
    ++completed_;
  }
  void AddFailed() { ++failed_; }

  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t size() const { return completed_ + failed_; }

  // Nearest-rank q-percentile (q in (0, 1]): the smallest sample with at
  // least q * n samples at or below it; a dense sample reads as the middle
  // of its microsecond.
  Percentile At(double q) {
    Percentile p;
    p.samples = size();
    if (p.samples == 0) {
      p.value = std::numeric_limits<double>::quiet_NaN();
      return p;
    }
    const double n = static_cast<double>(p.samples);
    std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * n));
    rank = std::clamp<std::uint64_t>(rank, 1, p.samples);
    p.beyond = p.samples - rank;
    if (rank > completed_) {
      p.value = kInf;
      return p;
    }
    std::uint64_t below = 0;
    for (std::size_t us = 0; us < dense_.size(); ++us) {
      below += dense_[us];
      if (below >= rank) {
        p.value = static_cast<double>(us) + 0.5;
        return p;
      }
    }
    if (!sorted_) {
      std::sort(sparse_.begin(), sparse_.end());
      sorted_ = true;
    }
    p.value = sparse_[rank - below - 1];
    return p;
  }

 private:
  std::vector<std::uint32_t> dense_;  // count per whole microsecond
  std::vector<double> sparse_;        // samples >= kDenseLimitUs
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  bool sorted_ = true;
};

inline double FailedRatio(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 1.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

// Median of a non-empty sample (mean of the middle two for even sizes);
// NaN when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// The q-quantile of a LatencyHistogram, interpolated linearly inside the
// bucket that holds rank q * count (nanoseconds; NaN when empty). The
// histogram's own Percentile returns the bucket's upper edge, which makes a
// run-to-run comparison jump a whole bucket at a time.
inline double HistogramPercentile(const dynasore::common::LatencyHistogram& h,
                                  double q) {
  using dynasore::common::LatencyHistogram;
  if (h.count() == 0) return std::numeric_limits<double>::quiet_NaN();
  const double target = q * static_cast<double>(h.count());
  double below = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const double n = static_cast<double>(h.bucket_count(i));
    if (n == 0) continue;
    if (below + n >= target) {
      const double lo = static_cast<double>(LatencyHistogram::BucketLower(i));
      const double hi =
          static_cast<double>(LatencyHistogram::BucketUpper(i)) + 1.0;
      return lo + (hi - lo) * std::clamp((target - below) / n, 0.0, 1.0);
    }
    below += n;
  }
  return static_cast<double>(h.max());
}

}  // namespace perfbench
