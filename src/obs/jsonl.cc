#include "obs/jsonl.h"

#include <istream>
#include <ostream>
#include <utility>

namespace qa::obs {

util::StatusOr<JsonlWriter> JsonlWriter::Open(const std::string& path,
                                              std::string_view what) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!file->is_open()) {
    return util::Status::InvalidArgument(
        "cannot open " + std::string(what) + " file: " + path);
  }
  JsonlWriter writer(file.get());
  writer.file_ = std::move(file);
  return writer;
}

void JsonlWriter::Write(const Json& json) {
  if (sink_ == nullptr) return;
  line_buffer_.clear();
  json.DumpTo(line_buffer_);
  line_buffer_.push_back('\n');
  sink_->write(line_buffer_.data(),
               static_cast<std::streamsize>(line_buffer_.size()));
}

void JsonlWriter::Flush() {
  if (sink_ != nullptr) sink_->flush();
}

util::Status ReadJsonLines(
    std::istream& in, std::string_view what,
    const std::function<util::Status(const Json&)>& record) {
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    util::StatusOr<Json> parsed = Json::Parse(line);
    util::Status status = parsed.ok() ? record(*parsed) : parsed.status();
    if (!status.ok()) {
      return util::Status(status.code(), std::string(what) + " line " +
                                             std::to_string(line_number) +
                                             ": " + status.message());
    }
  }
  return util::Status::OK();
}

}  // namespace qa::obs
