#include "sim/metrics.h"

#include <numeric>
#include <string>

namespace qa::sim {

util::Status ValidateAccounting(const SimMetrics& metrics) {
  auto broken = [](const char* identity, int64_t lhs, int64_t rhs) {
    return util::Status::Internal(std::string("accounting identity ") +
                                  identity + " broken: " +
                                  std::to_string(lhs) + " vs " +
                                  std::to_string(rhs));
  };
  const int64_t arrivals = metrics.arrivals;
  const int64_t completed = metrics.completed;
  const int64_t dropped = metrics.dropped;
  const int64_t shed = metrics.shed;
  if (arrivals != completed + dropped) {
    return broken("arrivals == completed + dropped", arrivals,
                  completed + dropped);
  }
  if (metrics.admission_rejects > shed) {
    return broken("admission_rejects <= shed", metrics.admission_rejects,
                  shed);
  }
  if (shed > dropped) return broken("shed <= dropped", shed, dropped);
  if (metrics.expired > dropped) {
    return broken("expired <= dropped", metrics.expired, dropped);
  }
  const std::vector<int64_t>& drops = metrics.dropped_per_class;
  int64_t class_drops = std::accumulate(drops.begin(), drops.end(), int64_t{0});
  if (class_drops != dropped) {
    return broken("sum(dropped_per_class) == dropped", class_drops, dropped);
  }
  const std::vector<int64_t>& retries = metrics.retries_per_class;
  int64_t class_retries =
      std::accumulate(retries.begin(), retries.end(), int64_t{0});
  if (class_retries != metrics.retries) {
    return broken("sum(retries_per_class) == retries", class_retries,
                  metrics.retries);
  }
  auto samples = static_cast<int64_t>(metrics.response_time_ms.count());
  if (completed != samples) {
    return broken("completed == response-time samples", completed, samples);
  }
  auto events = static_cast<int64_t>(metrics.completions.size());
  if (completed != events) {
    return broken("completed == completion events", completed, events);
  }
  return util::Status::OK();
}

}  // namespace qa::sim
