#ifndef QAMARKET_OBS_RECORDER_H_
#define QAMARKET_OBS_RECORDER_H_

#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "obs/snapshot.h"
#include "obs/trace_schema.h"
#include "util/status.h"
#include "util/vtime.h"

namespace qa::obs {

/// Streams telemetry records as JSONL. It keeps no counts of its own: a
/// run's totals are its SimMetrics, written once as the trailing `run`
/// record. One Recorder belongs to one simulation run at a time (single
/// writer, no locking): probes sit on the simulator's hot path, so keeping
/// the recorder thread-confined keeps the enabled path cheap and the
/// disabled path a single pointer test.
///
/// Probe sites use the QA_OBS macro below so that the disabled path is one
/// predictable branch.
class Recorder {
 public:
  /// A disabled recorder: every probe is dropped.
  Recorder() = default;

  /// Records into `sink` (not owned; must outlive the recorder).
  explicit Recorder(std::ostream* sink) : sink_(sink) {}

  /// Opens `path` for writing and records into it.
  static util::StatusOr<std::unique_ptr<Recorder>> OpenFile(
      const std::string& path);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const { return sink_ != nullptr; }

  // ---- Trace records (one JSONL line each) ----
  void Record(const MetaRecord& record) { Write(record.ToJson()); }
  void Record(const EventRecord& record) { Write(record.ToJson()); }
  void Record(const PriceRecord& record) { Write(record.ToJson()); }
  void Record(const AgentRecord& record) { Write(record.ToJson()); }
  void Record(const ClusterRecord& record) { Write(record.ToJson()); }
  void Record(const UmpireRecord& record) { Write(record.ToJson()); }
  void Record(const RunRecord& record) { Write(record.ToJson()); }

  /// Expands an allocator snapshot into price/agent/umpire records stamped
  /// with virtual time `now`.
  void RecordSnapshot(util::VTime now, const AllocatorSnapshot& snapshot);

  /// Syncs the sink; called by the owner once the run(s) being traced are
  /// over.
  void Finish();

  ~Recorder() { Finish(); }

 private:
  void Write(const Json& json);

  std::ostream* sink_ = nullptr;
  /// Owned sink storage when OpenFile was used.
  std::unique_ptr<std::ofstream> file_;
  std::string line_buffer_;
};

}  // namespace qa::obs

/// Probe gate: `QA_OBS(recorder) recorder->...;` costs one null test when
/// telemetry is off.
#define QA_OBS(recorder_ptr) if ((recorder_ptr) != nullptr)

#endif  // QAMARKET_OBS_RECORDER_H_
