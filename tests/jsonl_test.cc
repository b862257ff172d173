// The telemetry layer's one JSONL writer and one line reader (obs/jsonl),
// and the two parsers that walk lines through it: the trace
// (obs::ParsedTrace) and the metrics stream (obs::metrics::ParsedMetrics)
// fed the same malformed lines, each outcome pinned.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/jsonl.h"
#include "obs/metrics/collector.h"
#include "obs/metrics/metrics_reader.h"
#include "obs/recorder.h"
#include "obs/trace_reader.h"

namespace qa::obs {
namespace {

TEST(JsonlWriterTest, WritesOneLinePerJson) {
  std::ostringstream sink;
  JsonlWriter out(&sink);
  EXPECT_TRUE(out.enabled());
  Json a = Json::MakeObject();
  a.Set("type", "a");
  a.Set("n", 1);
  out.Write(a);
  out.Write(Json::MakeArray());
  out.Flush();
  EXPECT_EQ(sink.str(), "{\"type\":\"a\",\"n\":1}\n[]\n");
}

TEST(JsonlWriterTest, WriterWithoutSinkDropsEverything) {
  JsonlWriter out;
  EXPECT_FALSE(out.enabled());
  out.Write(Json::MakeObject());  // no sink: nothing to crash on
  out.Flush();
}

TEST(JsonlWriterTest, OpenErrorsNameTheStream) {
  const std::string path = "no-such-dir/out.jsonl";
  util::StatusOr<JsonlWriter> out = JsonlWriter::Open(path, "trace");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().message(), "cannot open trace file: " + path);

  util::StatusOr<std::unique_ptr<Recorder>> recorder =
      Recorder::OpenFile(path);
  ASSERT_FALSE(recorder.ok());
  EXPECT_EQ(recorder.status().message(), "cannot open trace file: " + path);

  util::StatusOr<std::unique_ptr<metrics::Collector>> collector =
      metrics::Collector::OpenFile(path);
  ASSERT_FALSE(collector.ok());
  EXPECT_EQ(collector.status().message(),
            "cannot open metrics file: " + path);
}

/// One stream fed to both parsers, and what each must make of it: an
/// empty string means the parse succeeds with no record, anything else is
/// the exact error message.
struct MalformedCase {
  const char* name;
  const char* input;
  const char* trace_error;
  const char* metrics_error;
};

const std::vector<MalformedCase>& MalformedCases() {
  static const std::vector<MalformedCase> kCases = {
      {"truncated JSON", "\n{\"type\":\"event\",\"t_us\":",
       "trace line 2: JSON parse error at offset 23: unexpected end of input",
       "metrics line 2: JSON parse error at offset 23: unexpected end of "
       "input"},
      {"trailing garbage", "{\"type\":\"event\"} x",
       "trace line 1: JSON parse error at offset 17: trailing characters "
       "after JSON value",
       "metrics line 1: JSON parse error at offset 17: trailing characters "
       "after JSON value"},
      {"non-object line", "\n\n[1,2]\n",
       "trace line 3: record without a \"type\" field",
       "metrics line 3: unknown record type ''"},
      {"record without type", "{\"t_us\":5}\n",
       "trace line 1: record without a \"type\" field",
       "metrics line 1: unknown record type ''"},
      // The trace skips a type it does not know (same-schema forward
      // compatibility); the metrics stream rejects it (schema drift).
      {"unknown type", "\n{\"type\":\"bogus\"}\n", "",
       "metrics line 2: unknown record type 'bogus'"},
      {"blank lines", "\n\n\n", "", ""},
      {"empty stream", "", "", ""},
  };
  return kCases;
}

TEST(JsonlReaderTest, BothParsersPinEveryMalformedLine) {
  for (const MalformedCase& c : MalformedCases()) {
    SCOPED_TRACE(c.name);
    std::istringstream in(c.input);
    util::StatusOr<ParsedTrace> trace = ParsedTrace::Parse(in);
    if (std::string(c.trace_error).empty()) {
      ASSERT_TRUE(trace.ok()) << trace.status();
      EXPECT_EQ(trace->NumRecords(), 0u);
    } else {
      ASSERT_FALSE(trace.ok());
      EXPECT_EQ(trace.status().message(), c.trace_error);
    }

    util::StatusOr<metrics::ParsedMetrics> parsed =
        metrics::ParsedMetrics::Parse(c.input);
    if (std::string(c.metrics_error).empty()) {
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      EXPECT_TRUE(parsed->meta.is_null());
      EXPECT_TRUE(parsed->samples.empty());
      EXPECT_TRUE(parsed->stats.empty());
    } else {
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().message(), c.metrics_error);
    }
  }
}

TEST(JsonlReaderTest, LinesAfterAGoodRecordKeepTheirNumbers) {
  // The reader counts blank lines too, so the number names the line an
  // editor shows.
  std::istringstream trace_in(
      "{\"type\":\"meta\",\"schema\":1}\n\n{\"type\":\"event\"\n");
  util::StatusOr<ParsedTrace> trace = ParsedTrace::Parse(trace_in);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().message().rfind("trace line 3: ", 0), 0u)
      << trace.status();

  util::StatusOr<metrics::ParsedMetrics> parsed =
      metrics::ParsedMetrics::Parse(
          "{\"type\":\"mmeta\"}\n{\"type\":\"msample\"}\n\n\n[]\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "metrics line 5: unknown record type ''");
}

}  // namespace
}  // namespace qa::obs
