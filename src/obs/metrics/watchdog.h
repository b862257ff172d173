#ifndef QAMARKET_OBS_METRICS_WATCHDOG_H_
#define QAMARKET_OBS_METRICS_WATCHDOG_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics/market_probe.h"
#include "util/vtime.h"

namespace qa::obs::metrics {

/// One structured watchdog alarm. Deterministic: every input is virtual-time
/// simulation state, so alarm streams are byte-identical across shard and
/// thread counts.
struct AlarmRecord {
  util::VTime t_us = 0;
  int64_t period = 0;
  std::string watchdog;  // oscillation | starvation | nonconvergence |
                         // overload
  int class_id = -1;     // -1 = market-wide
  double value = 0.0;
  double threshold = 0.0;
  std::string detail;
};

/// Online market-health detectors, evaluated once per global period from
/// the mediator with the allocator's own market probe. Each alarm is
/// rising-edge latched: it fires once when its condition becomes true and
/// re-arms only after the condition clears, so a persistently sick market
/// yields one alarm per episode, not one per period.
class WatchdogSuite {
 public:
  explicit WatchdogSuite(util::VTime period_us);

  /// Feed from the arrival reject path: `sojourn_us` is how long the query
  /// has been waiting since its original arrival.
  void ObserveRejectSojourn(int class_id, util::VTime sojourn_us);

  /// Feed for the overload detector, called once before each
  /// EvaluatePeriod: the run's cumulative shed counter and the admission
  /// controller's current brownout level. The detector fires on the
  /// per-period shed delta, so cumulative feeds are the natural interface.
  void ObserveOverload(int64_t shed_total, int brownout_level) {
    shed_total_ = shed_total;
    brownout_level_ = brownout_level;
  }

  /// Run all detectors against this period's market probe (see
  /// MarketProbe for why the allocator fills a flat reusable buffer
  /// rather than a full snapshot). Returns the alarms that fired
  /// (possibly empty). Probes without per-agent state (non-market
  /// mechanisms) skip the price-based detectors.
  std::vector<AlarmRecord> EvaluatePeriod(int64_t period, util::VTime now,
                                          const MarketProbe& probe);

  // Gauge values computed by the latest EvaluatePeriod.
  double log_price_variance() const { return log_price_variance_; }
  double osc_flip_rate() const { return osc_flip_rate_; }
  double max_reject_age_ms() const { return max_reject_age_ms_; }
  double earnings_cv() const { return earnings_cv_; }

 private:
  struct ClassHistory {
    std::deque<double> mean_ln_price;  // last kWindow+1 period means
    std::deque<double> ln_price_var;   // last kWindow period variances
  };

  /// Latch slots, dense-indexed so the per-period latch bookkeeping is an
  /// array access, not a string-keyed map probe (EvaluatePeriod runs every
  /// period; its fixed cost is what the metrics overhead gate measures).
  /// The alarm-record name for each slot lives in WatchdogName().
  enum Watchdog : size_t {
    kStarvation = 0,
    kOscillation,
    kNonconvergence,
    kOverload,
    kWatchdogCount,
  };
  static const char* WatchdogName(Watchdog watchdog);

  /// True when the (watchdog, class) latch is open; closes it. Re-armed by
  /// ClearLatch when the condition is observed false.
  bool TryLatch(Watchdog watchdog, int class_id);
  void ClearLatch(Watchdog watchdog, int class_id);

  util::VTime period_us_;
  std::map<int, ClassHistory> history_;
  /// (class, worst sojourn) this period. A flat vector: the observe side
  /// runs per rejected allocation attempt, where a linear scan of a
  /// couple of classes beats a map probe. Sorted by class at evaluation
  /// so alarm order matches ascending class id.
  std::vector<std::pair<int, util::VTime>> worst_sojourn_us_;
  std::map<int, std::array<bool, kWatchdogCount>> latched_;  // per class

  double log_price_variance_ = 0.0;
  double osc_flip_rate_ = 0.0;
  double max_reject_age_ms_ = 0.0;
  double earnings_cv_ = 0.0;

  /// Overload-detector feed (ObserveOverload) and its previous-period
  /// cursor for the delta.
  int64_t shed_total_ = 0;
  int64_t prev_shed_total_ = 0;
  int brownout_level_ = 0;
};

}  // namespace qa::obs::metrics

#endif  // QAMARKET_OBS_METRICS_WATCHDOG_H_
