#ifndef QAMARKET_BENCHMARK_STATS_H_
#define QAMARKET_BENCHMARK_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qa::bench {

/// First quartile, median and third quartile of a sample.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  size_t n = 0;
};

/// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), so the benchmark, compare.py and the
/// acceptance check all read the same numbers. A single value is its own
/// three quartiles; an empty sample gives all zeros.
Quartiles ComputeQuartiles(std::vector<double> values);

/// Number of samples strictly above the `p`-th percentile of `values`
/// (the repo's linear-interpolation rule, util::Percentile). A reported
/// percentile needs at least ten samples beyond it to be more than noise.
int64_t SamplesBeyondPercentile(const std::vector<double>& values, double p);

/// Log-bucketed histogram of per-call durations in nanoseconds: eight
/// sub-buckets per power of two, so any percentile read back is within
/// 12.5% of the true sample. Count and sum are exact.
class LogHistogram {
 public:
  void Add(int64_t ns);
  void Merge(const LogHistogram& other);

  int64_t count() const { return count_; }
  int64_t sum_ns() const { return sum_ns_; }
  double seconds() const { return static_cast<double>(sum_ns_) * 1e-9; }
  /// Midpoint of the bucket holding the `p`-th percentile (0 when empty).
  double Percentile(double p) const;

 private:
  static constexpr int kSubBits = 3;
  static constexpr int kBuckets = 64 << kSubBits;
  static int BucketOf(int64_t ns);
  static double BucketLow(int bucket);

  std::array<int64_t, kBuckets> buckets_{};
  int64_t count_ = 0;
  int64_t sum_ns_ = 0;
};

}  // namespace qa::bench

#endif  // QAMARKET_BENCHMARK_STATS_H_
