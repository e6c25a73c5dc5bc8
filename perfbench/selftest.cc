// Self-test of the benchmark's own maths (stats.h) and span recorder
// (spans.h). Exits non-zero on the first failed expectation.
//
//   .bench_build/perfbench/dsbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/latency_histogram.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void NearestRankPercentiles() {
  perfbench::LatencySamples s;
  // 1..100 us, added out of order; dense samples read mid-microsecond.
  for (int v = 100; v >= 1; --v) s.Add(v + 0.2);
  ExpectNear(s.At(0.50).value, 50.5, "p50 of 1..100");
  ExpectNear(s.At(0.99).value, 99.5, "p99 of 1..100");
  ExpectNear(s.At(1.00).value, 100.5, "p100 of 1..100");
  Expect(s.At(0.99).samples == 100, "p99 sample count");
  Expect(s.At(0.99).beyond == 1, "one sample beyond p99 of 100");
  s.Add(0.1);  // adding after a query is seen by the next one
  ExpectNear(s.At(0.0001).value, 0.5, "minimum after a late add");

  perfbench::LatencySamples one;
  one.Add(7);
  ExpectNear(one.At(0.5).value, 7.5, "single sample p50");
  ExpectNear(one.At(0.99).value, 7.5, "single sample p99");

  // Samples past the dense range are kept exactly and ranked after it.
  perfbench::LatencySamples slow;
  const double limit = perfbench::LatencySamples::kDenseLimitUs;
  for (int i = 0; i < 98; ++i) slow.Add(10);
  slow.Add(limit + 2.25);
  slow.Add(limit + 1.75);
  ExpectNear(slow.At(0.50).value, 10.5, "dense median with slow outliers");
  ExpectNear(slow.At(0.99).value, limit + 1.75, "exact slow sample at p99");
  ExpectNear(slow.At(1.00).value, limit + 2.25, "exact slowest sample");

  perfbench::LatencySamples none;
  Expect(std::isnan(none.At(0.5).value), "empty distribution is NaN");
  Expect(none.At(0.5).samples == 0, "empty distribution has no samples");
}

void FailuresCountAsInfinite() {
  perfbench::LatencySamples s;
  for (int v = 1; v <= 98; ++v) s.Add(v);
  s.AddFailed();
  s.AddFailed();  // 2 of 100 failed: the top two ranks are theirs
  Expect(s.size() == 100 && s.failed() == 2 && s.completed() == 98,
         "failed ops are part of the distribution");
  ExpectNear(s.At(0.50).value, 50.5, "p50 unaffected by 2% failures");
  Expect(std::isinf(s.At(0.99).value), "p99 is infinite with 2% failures");
  ExpectNear(s.At(0.98).value, 98.5, "p98 is the slowest completed op");

  perfbench::LatencySamples all_failed;
  all_failed.AddFailed();
  Expect(std::isinf(all_failed.At(0.5).value), "all failed: p50 infinite");

  ExpectNear(perfbench::FailedRatio(3, 1000), 0.003, "failed ratio");
  ExpectNear(perfbench::FailedRatio(0, 1000), 0, "no failures");
  ExpectNear(perfbench::FailedRatio(0, 0), 1, "nothing attempted counts as failed");
}

void Medians() {
  ExpectNear(perfbench::Median({3, 1, 2}), 2, "odd median");
  ExpectNear(perfbench::Median({4, 1, 3, 2}), 2.5, "even median");
  Expect(std::isnan(perfbench::Median({})), "empty median is NaN");
}

void HistogramInterpolation() {
  using dynasore::common::LatencyHistogram;
  LatencyHistogram h;
  Expect(std::isnan(perfbench::HistogramPercentile(h, 0.5)),
         "empty histogram is NaN");
  // 1000 samples spread evenly over one bucket: the interpolated median
  // sits mid-bucket, where the histogram's own answer is the upper edge.
  const std::size_t b = LatencyHistogram::BucketOf(1'000'000);
  const double lo = static_cast<double>(LatencyHistogram::BucketLower(b));
  const double hi = static_cast<double>(LatencyHistogram::BucketUpper(b)) + 1;
  for (int i = 0; i < 1000; ++i) {
    h.Add(static_cast<std::uint64_t>(lo + (hi - lo) * (i + 0.5) / 1000));
  }
  const double p50 = perfbench::HistogramPercentile(h, 0.5);
  Expect(p50 > lo && p50 < hi, "interpolated p50 inside its bucket");
  ExpectNear(p50, lo + (hi - lo) / 2, "interpolated p50 mid-bucket");
  Expect(perfbench::HistogramPercentile(h, 0.25) <
             perfbench::HistogramPercentile(h, 0.75),
         "interpolation is monotone in q");
  Expect(p50 <= static_cast<double>(h.Percentile(0.5)) + 1,
         "never above the histogram's upper-edge answer");
}

void SpanNestingAndTotals() {
  perfbench::Tracer t;
  {
    perfbench::Scope outer(&t, "outer");
    perfbench::Scope inner(&t, "inner");
  }
  t.Record("manual", 0, 250);
  t.Record("manual", 0, 750);
  Expect(t.size() == 4, "four spans recorded");
  Expect(t.Durations("manual").size() == 2, "durations by name");
  ExpectNear(t.TotalNs("manual"), 1000, "total by name");
  Expect(t.Durations("outer")[0] >= t.Durations("inner")[0],
         "a parent span covers its child");
  perfbench::Scope disabled(nullptr, "ignored");  // must be a no-op
}

}  // namespace

int main() {
  NearestRankPercentiles();
  FailuresCountAsInfinite();
  Medians();
  HistogramInterpolation();
  SpanNestingAndTotals();
  if (failures == 0) std::printf("dsbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
