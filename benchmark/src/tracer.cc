#include "tracer.h"

#include <algorithm>

#include "util/monotonic_clock.h"

namespace qa::bench {

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kQuery:
      return "query";
    case Layer::kWorkload:
      return "workload";
    case Layer::kAllocation:
      return "allocation";
    case Layer::kSim:
      return "sim";
    case Layer::kExec:
      return "exec";
    case Layer::kDbms:
      return "dbms";
  }
  return "?";
}

Layer LayerOfMetric(std::string_view name) {
  std::string_view prefix = name.substr(0, name.find('.'));
  for (Layer layer : {Layer::kQuery, Layer::kWorkload, Layer::kAllocation,
                      Layer::kSim, Layer::kExec, Layer::kDbms}) {
    if (prefix == LayerName(layer)) return layer;
  }
  return Layer::kBench;
}

int Tracer::Open(Layer layer, std::string name, int parent, int run) {
  int64_t now = util::MonotonicClock::NowNanos();
  return Record(layer, std::move(name), parent, now, now, run);
}

void Tracer::Close(int id) {
  int64_t now = util::MonotonicClock::NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int Tracer::Record(Layer layer, std::string name, int parent,
                   int64_t start_ns, int64_t end_ns, int run) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.layer = layer;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.run = run;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Span Tracer::span(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<size_t>(id)];
}

void Tracer::MergeCalls(const std::string& name, const LogHistogram& calls) {
  std::lock_guard<std::mutex> lock(mu_);
  calls_[name].Merge(calls);
}

LogHistogram Tracer::calls(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = calls_.find(name);
  return it != calls_.end() ? it->second : LogHistogram();
}

void Tracer::Count(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += value;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0.0;
}

obs::Json Tracer::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Span>& all = spans_;
  int64_t origin = all.empty() ? 0 : all.front().start_ns;
  obs::Json spans_json = obs::Json::MakeArray();
  for (const Span& span : all) {
    obs::Json json = obs::Json::MakeObject();
    json.Set("id", span.id);
    json.Set("parent", span.parent);
    json.Set("layer", std::string(LayerName(span.layer)));
    json.Set("name", span.name);
    json.Set("start_ns", span.start_ns - origin);
    json.Set("end_ns", span.end_ns - origin);
    json.Set("run", span.run);
    spans_json.Append(std::move(json));
  }
  obs::Json calls_json = obs::Json::MakeObject();
  for (const auto& [name, hist] : calls_) {
    obs::Json json = obs::Json::MakeObject();
    json.Set("calls", hist.count());
    json.Set("sum_ns", hist.sum_ns());
    json.Set("p50_ns", hist.Percentile(50));
    json.Set("p99_ns", hist.Percentile(99));
    calls_json.Set(name, std::move(json));
  }
  obs::Json counters_json = obs::Json::MakeObject();
  for (const auto& [name, value] : counters_) counters_json.Set(name, value);
  obs::Json json = obs::Json::MakeObject();
  json.Set("spans", std::move(spans_json));
  json.Set("calls", std::move(calls_json));
  json.Set("counters", std::move(counters_json));
  return json;
}

int64_t UnionNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                   int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

int64_t SelfNanos(const std::vector<Span>& spans, size_t index,
                  int64_t aggregated_child_ns) {
  const Span& span = spans[index];
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& child : spans) {
    if (child.parent == span.id) children.emplace_back(child.start_ns, child.end_ns);
  }
  return span.duration_ns() -
         UnionNanos(std::move(children), span.start_ns, span.end_ns) -
         aggregated_child_ns;
}

}  // namespace qa::bench
