#ifndef QAMARKET_BENCHMARK_TRACER_H_
#define QAMARKET_BENCHMARK_TRACER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "stats.h"

namespace qa::bench {

/// The layers spans are attributed to: the repo's src/ modules, plus the
/// benchmark's own code.
enum class Layer : uint8_t {
  kBench,
  kQuery,
  kWorkload,
  kAllocation,
  kSim,
  kExec,
  kDbms,
};

std::string_view LayerName(Layer layer);

/// The layer a metric or span name belongs to: the part before its first
/// '.' ("sim.run" -> kSim); kBench for names without a layer prefix.
Layer LayerOfMetric(std::string_view name);

/// One coarse span: a set-up step, a construct, a Run, a ParallelFor call
/// or a grid cell. `run` is the run (or grid cell) index within its rep.
struct Span {
  int id = 0;
  int parent = -1;
  Layer layer = Layer::kBench;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int run = -1;

  int64_t duration_ns() const { return end_ns - start_ns; }
  double seconds() const { return static_cast<double>(duration_ns()) * 1e-9; }
};

/// In-memory store of one run's spans, per-call boundaries and counters,
/// written out when the benchmark ends. Thread-safe. A per-call boundary
/// (Allocate, a period hook, a dbms estimate...) is not kept as spans but
/// as a histogram of call durations (exact count and sum), aggregated by
/// the decorator that saw the calls and merged here after the fork-join
/// that produced them.
class Tracer {
 public:
  /// Opens a span now and returns its id.
  int Open(Layer layer, std::string name, int parent = -1, int run = -1);
  void Close(int id);
  /// Records a span whose bounds were measured elsewhere.
  int Record(Layer layer, std::string name, int parent, int64_t start_ns,
             int64_t end_ns, int run = -1);

  /// A copy of every span so far (callers hold no lock while reading).
  std::vector<Span> spans() const;
  Span span(int id) const;

  /// Folds per-call stats a decorator kept into the boundary `name`.
  void MergeCalls(const std::string& name, const LogHistogram& calls);
  LogHistogram calls(const std::string& name) const;

  /// Adds `value` to the counter `name` (seconds, counts, MB...).
  void Count(const std::string& name, double value);
  double counter(const std::string& name) const;

  obs::Json ToJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, LogHistogram> calls_;
  std::map<std::string, double> counters_;
};

/// Length of the union of `intervals` clipped to [lo, hi).
int64_t UnionNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                   int64_t lo, int64_t hi);

/// Self time of `spans[index]`: its duration minus the part of it that
/// its direct children cover (children may nest or overlap each other),
/// minus `aggregated_child_ns`, the summed time of per-call boundaries
/// that ran inside it on its own thread and outside every child span.
int64_t SelfNanos(const std::vector<Span>& spans, size_t index,
                  int64_t aggregated_child_ns = 0);

}  // namespace qa::bench

#endif  // QAMARKET_BENCHMARK_TRACER_H_
