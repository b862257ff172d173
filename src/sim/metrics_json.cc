#include "sim/metrics_json.h"

#include <vector>

namespace qa::sim {

obs::Json MetricsToJson(const SimMetrics& metrics) {
  obs::Json json = obs::Json::MakeObject();
  json.Set("arrivals", metrics.arrivals);
  json.Set("completed", metrics.completed);
  json.Set("assigned", metrics.assigned);
  json.Set("dropped", metrics.dropped);
  json.Set("expired", metrics.expired);
  json.Set("shed", metrics.shed);
  json.Set("admission_rejects", metrics.admission_rejects);
  json.Set("retries", metrics.retries);
  json.Set("bounced", metrics.bounced);
  json.Set("lost", metrics.lost);
  json.Set("messages", metrics.messages);
  json.Set("solicited", metrics.solicited);
  // Omitted for flat-market runs so their reports keep their exact bytes.
  if (metrics.clusters_solicited != 0) {
    json.Set("clusters_solicited", metrics.clusters_solicited);
  }
  json.Set("events_dispatched", metrics.events_dispatched);
  json.Set("end_time_us", metrics.end_time);
  json.Set("total_busy_us", metrics.total_busy_time);
  json.Set("mean_ms", metrics.MeanResponseMs());
  json.Set("p50_ms", metrics.response_time_ms.Percentile(50));
  json.Set("p95_ms", metrics.response_time_ms.Percentile(95));
  json.Set("p99_ms", metrics.response_time_ms.Percentile(99));
  json.Set("min_ms", metrics.response_time_ms.min());
  json.Set("max_ms", metrics.response_time_ms.max());
  json.Set("throughput_qps", metrics.ThroughputQps());

  obs::Json dropped = obs::Json::MakeArray();
  for (int64_t d : metrics.dropped_per_class) dropped.Append(d);
  json.Set("dropped_per_class", std::move(dropped));

  obs::Json retries = obs::Json::MakeArray();
  for (int64_t r : metrics.retries_per_class) retries.Append(r);
  json.Set("retries_per_class", std::move(retries));

  // Completions per class, read off the completion events (each sample's
  // value is the class id); one entry per class, like the drop breakdown.
  std::vector<int64_t> per_class(metrics.dropped_per_class.size(), 0);
  for (const stats::Sample& sample : metrics.completions.samples()) {
    auto k = static_cast<size_t>(sample.value);
    if (k >= per_class.size()) per_class.resize(k + 1, 0);
    ++per_class[k];
  }
  obs::Json completed = obs::Json::MakeArray();
  for (int64_t c : per_class) completed.Append(c);
  json.Set("completed_per_class", std::move(completed));
  return json;
}

}  // namespace qa::sim
