#ifndef QAMARKET_STATS_SERIES_H_
#define QAMARKET_STATS_SERIES_H_

#include <cstddef>
#include <vector>

#include "util/vtime.h"

namespace qa::stats {

/// A single (time, value) observation.
struct Sample {
  util::VTime time = 0;
  double value = 0.0;
};

/// Append-only time series with fixed-width bucket aggregation, used to
/// produce the per-period curves in the paper's figures (e.g. queries
/// executed per half second in Fig. 5c).
class TimeSeries {
 public:
  void Add(util::VTime time, double value) { samples_.push_back({time, value}); }

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const std::vector<Sample>& samples() const { return samples_; }

  /// Splits [0, horizon) into buckets of width `bucket` and returns the
  /// number of samples per bucket.
  std::vector<size_t> BucketCounts(util::VDuration bucket,
                                   util::VTime horizon) const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace qa::stats

#endif  // QAMARKET_STATS_SERIES_H_
