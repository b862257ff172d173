#include "obs/trace_reader.h"

#include <fstream>
#include <istream>

namespace qa::obs {

util::StatusOr<ParsedTrace> ParsedTrace::Parse(std::istream& in) {
  ParsedTrace trace;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    util::StatusOr<Json> parsed = Json::Parse(line);
    if (!parsed.ok()) {
      return util::Status::InvalidArgument(
          "trace line " + std::to_string(line_number) + ": " +
          parsed.status().message());
    }
    const Json& json = *parsed;
    std::string type = json.GetString("type");
    if (type == "meta") {
      trace.meta = MetaRecord::FromJson(json);
      trace.has_meta = true;
      if (trace.meta.schema > kTraceSchemaVersion) {
        return util::Status::InvalidArgument(
            "trace line " + std::to_string(line_number) +
            ": schema version " + std::to_string(trace.meta.schema) +
            " is newer than this reader (" +
            std::to_string(kTraceSchemaVersion) + ")");
      }
    } else if (type == "event") {
      trace.events.push_back(EventRecord::FromJson(json));
    } else if (type == "price") {
      trace.prices.push_back(PriceRecord::FromJson(json));
    } else if (type == "agent") {
      trace.agents.push_back(AgentRecord::FromJson(json));
    } else if (type == "cluster") {
      trace.clusters.push_back(ClusterRecord::FromJson(json));
    } else if (type == "umpire") {
      trace.umpire.push_back(UmpireRecord::FromJson(json));
    } else if (type == "run") {
      trace.runs.push_back(RunRecord::FromJson(json));
    } else if (type.empty()) {
      return util::Status::InvalidArgument(
          "trace line " + std::to_string(line_number) +
          ": record without a \"type\" field");
    }
    // Unknown non-empty types: skipped (same-schema forward compatibility).
  }
  return trace;
}

util::StatusOr<ParsedTrace> ParsedTrace::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return util::Status::NotFound("cannot open trace file: " + path);
  }
  return Parse(in);
}

}  // namespace qa::obs
