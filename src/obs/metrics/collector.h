#ifndef QAMARKET_OBS_METRICS_COLLECTOR_H_
#define QAMARKET_OBS_METRICS_COLLECTOR_H_

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/jsonl.h"
#include "obs/metrics/catalog.h"
#include "obs/metrics/watchdog.h"
#include "util/monotonic_clock.h"
#include "util/status.h"
#include "util/vtime.h"

namespace qa::obs::metrics {

/// A log-bucketed value/latency histogram: power-of-two buckets, so one
/// `Record` is a bit_width plus an increment — cheap enough for per-event
/// use — and the bucket layout needs no configuration.
///
/// Bucket b (b >= 1) holds values v with 2^(b-1) <= v <= 2^b - 1;
/// bucket 0 holds v <= 0. With 48 buckets the top bucket starts at 2^46 ns
/// (~21 hours), far past any phase this project times.
struct Histogram {
  static constexpr int kBuckets = 48;

  std::array<uint64_t, kBuckets> buckets{};
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  // meaningful only when count > 0
  int64_t max = 0;

  /// The bucket index of `v`: 0 for v <= 0, otherwise bit_width(v)
  /// clamped to the top bucket. Inline: this is the per-event path.
  static int BucketOf(int64_t v) {
    if (v <= 0) return 0;
    int b = static_cast<int>(std::bit_width(static_cast<uint64_t>(v)));
    return b < kBuckets - 1 ? b : kBuckets - 1;
  }
  /// Smallest value bucket `b` holds (0 for bucket 0).
  static int64_t BucketLowerBound(int b) {
    return b <= 0 ? 0 : int64_t{1} << (b - 1);
  }

  /// Records `v` with statistical weight `weight`: a probe that times one
  /// in every N occurrences of an event records the measured duration with
  /// weight N, keeping `count`, `sum` and the bucket mass unbiased
  /// estimates of the full population (min/max describe sampled values
  /// only).
  void Record(int64_t v, uint64_t weight = 1) {
    buckets[static_cast<size_t>(BucketOf(v))] += weight;
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    count += weight;
    sum += v * static_cast<int64_t>(weight);
  }
  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// The wall-clock-timed phases of a run. Each maps 1:1 onto one of the
/// catalog's phase histograms.
enum class Phase : int {
  kRunTotal = 0,
  kLaneDrain,
  kMerge,
  kMarketTick,
  kAllocate,
  kSnapshot,
  kMediatorDispatch,
};

/// Sampling stride for the per-allocation phase probe (kAllocate): one in
/// every kAllocProbeStride allocations is timed, and the measured
/// duration is recorded with this weight. At allocation granularity the
/// probe itself (two clock reads, one histogram record) is a measurable
/// fraction of the work being timed; sampling
/// cuts that to 1/N while the weighted records keep histogram counts and
/// sums unbiased. Which allocations get timed is a pure function of the
/// allocation sequence number, so record counts stay deterministic
/// across shard/thread layouts.
inline constexpr uint64_t kAllocProbeStride = 8;

/// Sampling stride for the per-tick phase probe (kMarketTick), same scheme
/// as kAllocProbeStride. Deliberately
/// coprime to the market-tick divisor (a power of two in every shipped
/// scenario): a stride sharing a factor with the divisor would pin the
/// sample to a fixed position inside the global period — e.g. always the
/// rollover-heavy boundary tick — and bias the estimated tick cost.
inline constexpr uint64_t kTickProbeStride = 7;

/// Run metadata for the leading `mmeta` line of the metrics stream.
struct RunMeta {
  std::string mechanism;
  int nodes = 0;
  int shards = 1;
  int threads = 1;
  uint64_t seed = 0;
  util::VTime period_us = 0;
};

/// Metrics collector: the JSONL metrics sink plus what only it measures —
/// the catalog histograms (wall-clock phases and the queue depth) and the
/// per-lane drain slots. Counts are not kept here: `Sample` writes the row
/// the federation renders from sim::SimMetrics and the watchdogs, `Alarm`
/// renders a watchdog's alarm, and neither stores anything. Mirrors the
/// Recorder's threading contract — all methods are mediator-thread-only
/// except RecordLaneDrain, which workers call with distinct lane indices
/// inside a fence's fork-join section (the join publishes the writes).
///
/// Record layout of the sink (one JSON object per line, `type` field):
///   mmeta   — once, run metadata
///   msample — per global period plus one final row (deterministic)
///   alarm   — watchdog alarms (deterministic, rising-edge latched)
///   mstat   — at Finish, one per catalog histogram, in catalog order
///   mshards — at Finish, per-lane wall-time and event totals
/// Deterministic record *counts*: everything except the histogram values
/// inside mstat/mshards is byte-identical across shard/thread counts, and
/// even those keep a fixed record count (tests/metrics_test.cc pins this).
///
/// The collector is the *sidecar* side of the determinism boundary:
/// qa_lint's QA-DET-004 taint pass whitelists calls into this class (and
/// anything else defined under src/obs/metrics) as legal consumers of
/// MonotonicClock readings; the same value flowing anywhere else in a sim
/// path is a finding.
class Collector {
 public:
  /// A collect-only collector: no sink; the histograms and lane slots
  /// still accumulate for PerfJson().
  Collector() = default;

  /// Streams metrics records into `sink` (not owned; must outlive this).
  explicit Collector(std::ostream* sink) : out_(sink) {}
  /// Streams through `out` (OpenFile hands over the file it opened).
  explicit Collector(JsonlWriter out) : out_(std::move(out)) {}

  /// Opens `path` for writing and streams into it.
  static util::StatusOr<std::unique_ptr<Collector>> OpenFile(
      const std::string& path);

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Starts a run: emits the mmeta line.
  void BeginRun(const RunMeta& meta);

  /// Sizes the per-lane wall-time slots (one per node lane).
  void SetNumLanes(size_t lanes);

  /// Observes one wall-clock phase duration (nanoseconds). A sampled
  /// probe passes the sampling stride as `weight` so histogram counts and
  /// sums stay unbiased estimates of the full event population.
  void RecordPhase(Phase phase, int64_t nanos, uint64_t weight = 1) {
    histograms_[static_cast<size_t>(PhaseMetric(phase))].Record(nanos,
                                                               weight);
  }

  /// Observes one node's waiting-queue length at a period fence.
  void RecordQueueDepth(int64_t depth) {
    histograms_[static_cast<size_t>(kNodeQueueDepth)].Record(depth);
  }

  const Histogram& histogram(int id) const {
    return histograms_[static_cast<size_t>(id)];
  }

  /// Worker-side: accumulates drain wall time and dispatched events for
  /// `lane`. Distinct lanes write distinct slots; the fence join makes the
  /// writes visible to the mediator thread.
  void RecordLaneDrain(size_t lane, int64_t nanos, uint64_t events);

  /// Whether records go anywhere. A collect-only collector writes no
  /// line, so its caller need not build one.
  bool streaming() const { return out_.enabled(); }

  /// Emits one deterministic msample line, rendered by the federation.
  void Sample(const Json& row) { out_.Write(row); }

  /// Emits one alarm line.
  void Alarm(const AlarmRecord& alarm);

  /// Writes the trailing mstat block (one line per catalog histogram,
  /// catalog order) and the mshards line, then flushes. Idempotent.
  void Finish();

  /// Per-phase and per-lane wall-time summary, plus the queue-depth
  /// histogram, for embedding in a RunReport (`perf` field) or bench row.
  Json PerfJson() const;

  /// The catalog histogram id for a phase.
  static int PhaseMetric(Phase phase) {
    return static_cast<int>(kPhaseRunTotal) + static_cast<int>(phase);
  }

  ~Collector() { Finish(); }

 private:
  JsonlWriter out_;
  std::array<Histogram, kMetricCount> histograms_{};
  std::vector<int64_t> lane_nanos_;
  std::vector<uint64_t> lane_events_;
  bool finished_ = false;
};

/// A RAII phase timer; a null collector times nothing.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(Collector* collector, Phase phase)
      : collector_(collector), phase_(phase) {
    if (collector_ != nullptr) start_ = util::MonotonicClock::NowNanos();
  }
  ~ScopedPhaseTimer() {
    if (collector_ != nullptr) {
      collector_->RecordPhase(phase_,
                              util::MonotonicClock::NowNanos() - start_);
    }
  }

 private:
  Collector* collector_;
  Phase phase_;
  int64_t start_ = 0;
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;
};

}  // namespace qa::obs::metrics

/// Probe gate for metrics call sites, mirroring QA_OBS: one null test when
/// metrics are off.
#define QA_METRICS(collector_ptr) if ((collector_ptr) != nullptr)

#endif  // QAMARKET_OBS_METRICS_COLLECTOR_H_
