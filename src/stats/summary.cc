#include "stats/summary.h"

#include <algorithm>
#include <cstdio>

#include "util/mathutil.h"

namespace qa::stats {

void Summary::Add(double value) { values_.push_back(value); }

double Summary::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Summary::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Summary::Mean() const { return util::Mean(values_); }

double Summary::Percentile(double p) const {
  return util::Percentile(values_, p);
}

std::string Summary::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.2f p50=%.2f p95=%.2f max=%.2f", count(), Mean(),
                Percentile(50), Percentile(95), max());
  return buf;
}

}  // namespace qa::stats
