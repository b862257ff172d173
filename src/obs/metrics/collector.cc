#include "obs/metrics/collector.h"

#include <algorithm>
#include <utility>

namespace qa::obs::metrics {

util::StatusOr<std::unique_ptr<Collector>> Collector::OpenFile(
    const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!file->is_open()) {
    return util::Status::InvalidArgument("cannot open metrics file: " + path);
  }
  auto collector = std::make_unique<Collector>(file.get());
  collector->file_ = std::move(file);
  return collector;
}

void Collector::Write(const Json& json) {
  if (sink_ == nullptr) return;
  line_buffer_.clear();
  json.DumpTo(line_buffer_);
  line_buffer_.push_back('\n');
  sink_->write(line_buffer_.data(),
               static_cast<std::streamsize>(line_buffer_.size()));
}

void Collector::BeginRun(const RunMeta& meta) {
  finished_ = false;
  if (sink_ == nullptr) return;
  Json line = Json::MakeObject();
  line.Set("type", "mmeta");
  line.Set("mechanism", meta.mechanism);
  line.Set("nodes", meta.nodes);
  line.Set("shards", meta.shards);
  line.Set("threads", meta.threads);
  line.Set("seed", meta.seed);
  line.Set("period_us", meta.period_us);
  Write(line);
}

void Collector::SetNumLanes(size_t lanes) {
  lane_nanos_.assign(lanes, 0);
  lane_events_.assign(lanes, 0);
}

void Collector::RecordLaneDrain(size_t lane, int64_t nanos, uint64_t events) {
  if (lane >= lane_nanos_.size()) return;
  lane_nanos_[lane] += nanos;
  lane_events_[lane] += events;
}

void Collector::Sample(const SampleRow& row) {
  // A collect-only collector (no sink) skips the line: building it costs
  // ~two dozen node allocations per period, which in-memory phase
  // attribution (bench A/B cells, the shard bench) must not pay on the
  // measured path.
  if (sink_ == nullptr) return;
  Json line = Json::MakeObject();
  line.Set("type", "msample");
  line.Set("t_us", row.t_us);
  line.Set("period", row.period);
  line.Set("ticks", row.ticks);
  line.Set("events", row.events_dispatched);
  line.Set("assigned", row.assigned);
  line.Set("completed", row.completed);
  line.Set("dropped", row.dropped);
  line.Set("expired", row.expired);
  line.Set("bounced", row.bounced);
  line.Set("lost", row.lost);
  line.Set("retries", row.retries);
  line.Set("messages", row.messages);
  line.Set("solicited", row.solicited);
  line.Set("outstanding", row.outstanding);
  line.Set("shed", row.shed);
  line.Set("admission_rejects", row.admission_rejects);
  line.Set("brownout", row.brownout_level);
  line.Set("log_price_var", row.log_price_variance);
  line.Set("osc_flip_rate", row.osc_flip_rate);
  line.Set("max_reject_age_ms", row.max_reject_age_ms);
  line.Set("earnings_cv", row.earnings_cv);
  Write(line);
}

void Collector::Alarm(const AlarmRecord& alarm) {
  if (sink_ == nullptr) return;
  Json line = Json::MakeObject();
  line.Set("type", "alarm");
  line.Set("t_us", alarm.t_us);
  line.Set("period", alarm.period);
  line.Set("watchdog", alarm.watchdog);
  line.Set("class", alarm.class_id);
  line.Set("value", alarm.value);
  line.Set("threshold", alarm.threshold);
  line.Set("detail", alarm.detail);
  Write(line);
}

void Collector::Finish() {
  if (finished_) return;
  finished_ = true;
  if (sink_ == nullptr) return;
  const std::vector<MetricDef>& catalog = Catalog();
  for (size_t i = 0; i < catalog.size(); ++i) {
    const Histogram& h = histograms_[i];
    Json line = Json::MakeObject();
    line.Set("type", "mstat");
    line.Set("name", std::string(catalog[i].name));
    // Every catalog metric is a histogram; the field stays in the line
    // format (SCHEMA.md).
    line.Set("kind", "histogram");
    line.Set("count", h.count);
    line.Set("sum", h.sum);
    line.Set("min", h.count > 0 ? h.min : 0);
    line.Set("max", h.count > 0 ? h.max : 0);
    Json buckets = Json::MakeArray();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets[static_cast<size_t>(b)] == 0) continue;
      Json pair = Json::MakeArray();
      pair.Append(Histogram::BucketLowerBound(b));
      pair.Append(h.buckets[static_cast<size_t>(b)]);
      buckets.Append(std::move(pair));
    }
    line.Set("buckets", std::move(buckets));
    Write(line);
  }
  Json shards = Json::MakeObject();
  shards.Set("type", "mshards");
  Json nanos = Json::MakeArray();
  Json events = Json::MakeArray();
  for (size_t lane = 0; lane < lane_nanos_.size(); ++lane) {
    nanos.Append(lane_nanos_[lane]);
    events.Append(lane_events_[lane]);
  }
  shards.Set("lane_drain_ns", std::move(nanos));
  shards.Set("lane_events", std::move(events));
  Write(shards);
  sink_->flush();
}

Json Collector::PerfJson() const {
  Json perf = Json::MakeObject();
  const std::vector<MetricDef>& catalog = Catalog();
  Json phases = Json::MakeObject();
  for (int i = kPhaseRunTotal; i <= kPhaseMediatorDispatch; ++i) {
    const Histogram& h = histogram(i);
    if (h.count == 0) continue;
    Json phase = Json::MakeObject();
    phase.Set("count", h.count);
    phase.Set("total_ms", static_cast<double>(h.sum) * 1e-6);
    phase.Set("mean_us", h.Mean() * 1e-3);
    phases.Set(std::string(catalog[static_cast<size_t>(i)].name),
               std::move(phase));
  }
  perf.Set("phases", std::move(phases));
  const Histogram& depth = histogram(kNodeQueueDepth);
  if (depth.count > 0) {
    Json row = Json::MakeObject();
    row.Set("observations", depth.count);
    row.Set("mean", depth.Mean());
    row.Set("max", depth.max);
    perf.Set("queue_depth", std::move(row));
  }
  if (!lane_nanos_.empty()) {
    Json lanes = Json::MakeArray();
    int64_t max_ns = 0, total_ns = 0;
    for (size_t lane = 0; lane < lane_nanos_.size(); ++lane) {
      Json row = Json::MakeObject();
      row.Set("drain_ms", static_cast<double>(lane_nanos_[lane]) * 1e-6);
      row.Set("events", lane_events_[lane]);
      lanes.Append(std::move(row));
      max_ns = std::max(max_ns, lane_nanos_[lane]);
      total_ns += lane_nanos_[lane];
    }
    perf.Set("lanes", std::move(lanes));
    const double mean_ns = static_cast<double>(total_ns) /
                           static_cast<double>(lane_nanos_.size());
    perf.Set("lane_imbalance",
             mean_ns > 0.0 ? static_cast<double>(max_ns) / mean_ns : 0.0);
  }
  return perf;
}

}  // namespace qa::obs::metrics
