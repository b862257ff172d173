#include "stats/series.h"

namespace qa::stats {

std::vector<size_t> TimeSeries::BucketCounts(util::VDuration bucket,
                                             util::VTime horizon) const {
  size_t n = bucket > 0 ? static_cast<size_t>((horizon + bucket - 1) / bucket)
                        : 0;
  std::vector<size_t> counts(n, 0);
  for (const Sample& s : samples_) {
    if (s.time < 0 || s.time >= horizon) continue;
    ++counts[static_cast<size_t>(s.time / bucket)];
  }
  return counts;
}

}  // namespace qa::stats
