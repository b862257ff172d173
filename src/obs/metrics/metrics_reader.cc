#include "obs/metrics/metrics_reader.h"

#include <fstream>
#include <sstream>
#include <utility>

namespace qa::obs::metrics {

const MetricStat* ParsedMetrics::FindStat(const std::string& name) const {
  for (const MetricStat& stat : stats) {
    if (stat.name == name) return &stat;
  }
  return nullptr;
}

util::StatusOr<ParsedMetrics> ParsedMetrics::Load(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return util::Status::NotFound("cannot open metrics file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return Parse(buffer.str());
}

util::StatusOr<ParsedMetrics> ParsedMetrics::Parse(const std::string& text) {
  ParsedMetrics parsed;
  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    util::StatusOr<Json> json = Json::Parse(line);
    if (!json.ok()) {
      return util::Status::InvalidArgument(
          "metrics line " + std::to_string(line_no) + ": " +
          json.status().message());
    }
    const Json& record = *json;
    const std::string type = record.GetString("type");
    if (type == "mmeta") {
      parsed.meta = record;
    } else if (type == "msample") {
      parsed.samples.push_back(record);
    } else if (type == "alarm") {
      AlarmRecord alarm;
      alarm.t_us = record.GetInt("t_us");
      alarm.period = record.GetInt("period");
      alarm.watchdog = record.GetString("watchdog");
      alarm.class_id = static_cast<int>(record.GetInt("class", -1));
      alarm.value = record.GetDouble("value");
      alarm.threshold = record.GetDouble("threshold");
      alarm.detail = record.GetString("detail");
      parsed.alarms.push_back(std::move(alarm));
    } else if (type == "mstat") {
      MetricStat stat;
      stat.name = record.GetString("name");
      stat.count = static_cast<uint64_t>(record.GetInt("count"));
      stat.sum = record.GetInt("sum");
      stat.min = record.GetInt("min");
      stat.max = record.GetInt("max");
      parsed.stats.push_back(std::move(stat));
    } else if (type == "mshards") {
      if (const Json* nanos = record.Find("lane_drain_ns");
          nanos != nullptr && nanos->is_array()) {
        for (const Json& v : nanos->array()) {
          parsed.lane_drain_ns.push_back(v.AsInt());
        }
      }
      if (const Json* events = record.Find("lane_events");
          events != nullptr && events->is_array()) {
        for (const Json& v : events->array()) {
          parsed.lane_events.push_back(v.AsInt());
        }
      }
    } else {
      return util::Status::InvalidArgument(
          "metrics line " + std::to_string(line_no) +
          ": unknown record type '" + type + "'");
    }
  }
  return parsed;
}

}  // namespace qa::obs::metrics
