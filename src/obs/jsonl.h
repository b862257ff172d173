#ifndef QAMARKET_OBS_JSONL_H_
#define QAMARKET_OBS_JSONL_H_

#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "util/status.h"

namespace qa::obs {

/// The one JSONL writer of the telemetry layer: the trace recorder and the
/// metrics collector both stream through it, one `Json` per line. A
/// writer without a sink drops every line.
class JsonlWriter {
 public:
  JsonlWriter() = default;

  /// Writes into `sink` (not owned; must outlive the writer).
  explicit JsonlWriter(std::ostream* sink) : sink_(sink) {}

  /// Opens `path` for writing. `what` names the stream in the error:
  /// "cannot open <what> file: <path>".
  static util::StatusOr<JsonlWriter> Open(const std::string& path,
                                          std::string_view what);

  bool enabled() const { return sink_ != nullptr; }

  /// Writes `json` as one line.
  void Write(const Json& json);

  void Flush();

 private:
  std::ostream* sink_ = nullptr;
  /// Owned sink storage when Open was used.
  std::unique_ptr<std::ofstream> file_;
  std::string line_buffer_;
};

/// The one JSONL line reader: parses each non-blank line of `in` as one
/// JSON document and hands it to `record`, in file order. The first parse
/// error, or the first error `record` returns, ends the walk and comes
/// back prefixed "<what> line N: ", N counting every line from 1.
util::Status ReadJsonLines(
    std::istream& in, std::string_view what,
    const std::function<util::Status(const Json&)>& record);

}  // namespace qa::obs

#endif  // QAMARKET_OBS_JSONL_H_
