#ifndef QAMARKET_OBS_METRICS_COLLECTOR_H_
#define QAMARKET_OBS_METRICS_COLLECTOR_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics/catalog.h"
#include "obs/metrics/registry.h"
#include "obs/metrics/watchdog.h"
#include "util/monotonic_clock.h"
#include "util/status.h"
#include "util/vtime.h"

namespace qa::obs::metrics {

/// The wall-clock-timed phases of a run. Each maps 1:1 onto one of the
/// catalog's phase histograms.
enum class Phase : int {
  kRunTotal = 0,
  kLaneDrain,
  kMerge,
  kMarketTick,
  kAllocate,
  kRollover,
  kBidScan,
  kSnapshot,
  kMediatorDispatch,
};

/// Sampling stride for the per-allocation phase probes (kAllocate and the
/// nested kBidScan): one in every kAllocProbeStride allocations is timed,
/// and the measured duration is recorded with this weight. At allocation
/// granularity the probe itself (three clock reads, two histogram
/// records) is a measurable fraction of the work being timed; sampling
/// cuts that to 1/N while the weighted records keep histogram counts and
/// sums unbiased. Which allocations get timed is a pure function of the
/// allocation sequence number, so record counts stay deterministic
/// across shard/thread layouts.
inline constexpr uint64_t kAllocProbeStride = 8;

/// Sampling stride for the per-tick phase probes (kMarketTick and the
/// nested kRollover), same scheme as kAllocProbeStride. Deliberately
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

/// One deterministic per-period sample: cumulative simulation counters plus
/// the watchdog gauges, all derived from virtual-time state — identical
/// bytes at any shard/thread count.
struct SampleRow {
  util::VTime t_us = 0;
  int64_t period = 0;
  int64_t ticks = 0;
  int64_t events_dispatched = 0;
  int64_t assigned = 0;
  int64_t completed = 0;
  int64_t dropped = 0;
  int64_t expired = 0;
  int64_t bounced = 0;
  int64_t lost = 0;
  int64_t retries = 0;
  int64_t messages = 0;
  int64_t solicited = 0;
  int64_t outstanding = 0;
  int64_t shed = 0;
  int64_t admission_rejects = 0;
  int64_t brownout_level = 0;
  double log_price_variance = 0.0;
  double osc_flip_rate = 0.0;
  double max_reject_age_ms = 0.0;
  double earnings_cv = 0.0;
};

/// Metrics collector: the single owner of a run's Registry, the JSONL
/// metrics sink, and the per-lane wall-time slots. Mirrors the Recorder's
/// threading contract — all methods are mediator-thread-only except
/// RecordLaneDrain, which workers call with distinct lane indices inside a
/// fence's fork-join section (the join publishes the writes).
///
/// Record layout of the sink (one JSON object per line, `type` field):
///   mmeta   — once, run metadata
///   msample — per global period plus one final row (deterministic)
///   alarm   — watchdog alarms (deterministic, rising-edge latched)
///   mstat   — at Finish, one per catalog metric, in catalog order
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
  /// A collect-only collector: no sink; counters, gauges, histograms and
  /// watchdog state still accumulate for ExpositionText()/PerfJson().
  Collector() = default;

  /// Streams metrics records into `sink` (not owned; must outlive this).
  explicit Collector(std::ostream* sink) : sink_(sink) {}

  /// Opens `path` for writing and streams into it.
  static util::StatusOr<std::unique_ptr<Collector>> OpenFile(
      const std::string& path);

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }

  /// Starts a run: emits the mmeta line and resets per-lane slots.
  void BeginRun(const RunMeta& meta);

  /// Sizes the per-lane wall-time slots (mediator lane 0 + node shards).
  void SetNumLanes(size_t lanes);

  /// Observes one wall-clock phase duration (nanoseconds). A sampled
  /// probe passes the sampling stride as `weight` so histogram counts and
  /// sums stay unbiased estimates of the full event population.
  void RecordPhase(Phase phase, int64_t nanos, uint64_t weight = 1) {
    registry_.Observe(PhaseMetric(phase), nanos, weight);
  }

  /// Worker-side: accumulates drain wall time and dispatched events for
  /// `lane`. Distinct lanes write distinct slots; the fence join makes the
  /// writes visible to the mediator thread.
  void RecordLaneDrain(size_t lane, int64_t nanos, uint64_t events);

  /// Boundary chaining for nested phases on the per-allocation hot path:
  /// an outer caller that just read the clock deposits the reading here,
  /// and the immediately-nested stage consumes it as its own start
  /// instead of reading the clock again (clock reads are the dominant
  /// probe cost at allocation granularity). TakePhaseMark clears the
  /// slot, so a stage invoked outside a marking caller falls back to its
  /// own read. Mediator-thread-only, like every non-lane method.
  void MarkPhaseStart(int64_t nanos) { phase_mark_ = nanos; }
  int64_t TakePhaseMark() {
    int64_t mark = phase_mark_;
    phase_mark_ = 0;
    return mark;
  }

  /// Emits one deterministic msample line and syncs the registry's
  /// counters and gauges to the row.
  void Sample(const SampleRow& row);

  /// Emits one alarm line and bumps the alarm counter.
  void Alarm(const AlarmRecord& alarm);

  /// Writes the trailing mstat block (one line per catalog metric, catalog
  /// order) and the mshards line, then flushes. Idempotent.
  void Finish();

  /// Prometheus-style text exposition of the current registry state.
  std::string ExpositionText() const { return registry_.ExpositionText(); }

  /// Per-phase and per-lane wall-time summary for embedding in a
  /// RunReport (`perf` field) or bench row.
  Json PerfJson() const;

  size_t num_lanes() const { return lane_nanos_.size(); }
  int64_t lane_nanos(size_t lane) const { return lane_nanos_[lane]; }
  uint64_t lane_events(size_t lane) const { return lane_events_[lane]; }

  /// The catalog histogram id for a phase.
  static int PhaseMetric(Phase phase) {
    return static_cast<int>(kPhaseRunTotal) + static_cast<int>(phase);
  }

  ~Collector() { Finish(); }

 private:
  void Write(const Json& json);

  std::ostream* sink_ = nullptr;
  /// Owned sink storage when OpenFile was used.
  std::unique_ptr<std::ofstream> file_;
  Registry registry_;
  std::vector<int64_t> lane_nanos_;
  std::vector<uint64_t> lane_events_;
  int64_t phase_mark_ = 0;
  bool finished_ = false;
  std::string line_buffer_;
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
