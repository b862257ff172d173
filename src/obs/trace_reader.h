#ifndef QAMARKET_OBS_TRACE_READER_H_
#define QAMARKET_OBS_TRACE_READER_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace_schema.h"
#include "util/status.h"

namespace qa::obs {

/// A fully parsed JSONL trace, split by record type in file order. This is
/// the one parser for the format: tools/qa_trace, the analysis helpers and
/// the schema round-trip tests all go through it.
struct ParsedTrace {
  MetaRecord meta;
  bool has_meta = false;
  std::vector<EventRecord> events;
  std::vector<PriceRecord> prices;
  std::vector<AgentRecord> agents;
  std::vector<ClusterRecord> clusters;
  std::vector<UmpireRecord> umpire;
  std::vector<RunRecord> runs;

  size_t NumRecords() const {
    return (has_meta ? 1 : 0) + events.size() + prices.size() +
           agents.size() + clusters.size() + umpire.size() + runs.size();
  }

  /// Parses a whole stream of JSONL records. Unknown record types from the
  /// *same* schema version are skipped (forward-compatible additions); a
  /// newer schema version or a malformed line is an error naming the line.
  static util::StatusOr<ParsedTrace> Parse(std::istream& in);

  /// Convenience: opens and parses `path`.
  static util::StatusOr<ParsedTrace> Load(const std::string& path);
};

}  // namespace qa::obs

#endif  // QAMARKET_OBS_TRACE_READER_H_
