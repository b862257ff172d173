#include "stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/mathutil.h"

namespace qa::bench {

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles, method="exclusive": m = n + 1, and quantile i of
  // 4 interpolates between positions j-1 and j with j = i*m // 4, clamped
  // to [1, n-1], in exact integer steps of a quarter.
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t m = n + 1;
  double q[3];
  for (int64_t i = 1; i <= 3; ++i) {
    int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    int64_t delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  out.q1 = q[0];
  out.median = q[1];
  out.q3 = q[2];
  return out;
}

int64_t SamplesBeyondPercentile(const std::vector<double>& values, double p) {
  double threshold = util::Percentile(values, p);
  return std::count_if(values.begin(), values.end(),
                       [threshold](double v) { return v > threshold; });
}

int LogHistogram::BucketOf(int64_t ns) {
  if (ns < (int64_t{1} << kSubBits)) return static_cast<int>(std::max<int64_t>(ns, 0));
  int exponent = static_cast<int>(std::bit_width(static_cast<uint64_t>(ns))) - 1;
  int sub = static_cast<int>((ns >> (exponent - kSubBits)) &
                             ((int64_t{1} << kSubBits) - 1));
  return ((exponent - kSubBits + 1) << kSubBits) + sub;
}

double LogHistogram::BucketLow(int bucket) {
  if (bucket < (1 << kSubBits)) return static_cast<double>(bucket);
  int exponent = (bucket >> kSubBits) + kSubBits - 1;
  int sub = bucket & ((1 << kSubBits) - 1);
  return std::ldexp(static_cast<double>((1 << kSubBits) + sub),
                    exponent - kSubBits);
}

void LogHistogram::Add(int64_t ns) {
  ++buckets_[static_cast<size_t>(BucketOf(ns))];
  ++count_;
  sum_ns_ += ns;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double LogHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  // Nearest rank: the smallest bucket holding at least p% of the calls.
  int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<size_t>(b)];
    if (seen >= rank) {
      if (b < (1 << kSubBits)) return static_cast<double>(b);
      double low = BucketLow(b);
      return low + (BucketLow(b + 1) - low) / 2.0;
    }
  }
  return BucketLow(kBuckets - 1);
}

}  // namespace qa::bench
