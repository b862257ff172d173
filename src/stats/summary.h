#ifndef QAMARKET_STATS_SUMMARY_H_
#define QAMARKET_STATS_SUMMARY_H_

#include <cstddef>
#include <string>
#include <vector>

namespace qa::stats {

/// Online accumulator for scalar samples (typically response times in ms).
class Summary {
 public:
  void Add(double value);

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double min() const;
  double max() const;
  double Mean() const;
  double Percentile(double p) const;

  const std::vector<double>& values() const { return values_; }

  /// "n=100 mean=12.3 p50=11.0 p95=30.1 max=44.0".
  std::string ToString() const;

 private:
  std::vector<double> values_;
};

}  // namespace qa::stats

#endif  // QAMARKET_STATS_SUMMARY_H_
