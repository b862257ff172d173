#include "provenance.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

namespace qa::bench {

namespace {

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

/// The flags one qa_* library translation unit was compiled with: the
/// compile command of src/sim/federation.cc minus compiler, output and
/// input.
std::string LibraryFlags(const std::string& build_dir) {
  std::ifstream in(build_dir + "/compile_commands.json");
  std::stringstream text;
  text << in.rdbuf();
  util::StatusOr<obs::Json> parsed = obs::Json::Parse(text.str());
  if (!parsed.ok() || !parsed->is_array()) return "unknown";
  for (const obs::Json& entry : parsed->array()) {
    const std::string_view suffix = "/src/sim/federation.cc";
    std::string file = entry.GetString("file");
    if (!file.ends_with(suffix)) continue;
    std::istringstream words(entry.GetString("command"));
    std::string word;
    std::string flags;
    bool first = true;
    bool skip_next = false;
    while (words >> word) {
      if (first || skip_next) {
        first = skip_next = false;
        continue;
      }
      if (word == "-o" || word == "-c") {
        skip_next = true;
        continue;
      }
      if (word.rfind("-I", 0) == 0) continue;
      flags += (flags.empty() ? "" : " ") + word;
    }
    return flags;
  }
  return "unknown";
}

}  // namespace

std::string ReadLoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string line;
  std::getline(in, line);
  return line;
}

double ResidentMb() {
  std::ifstream in("/proc/self/statm");
  long long size = 0;
  long long resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double PeakResidentMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

Provenance::Provenance(std::string build_dir)
    : build_dir_(std::move(build_dir)), loadavg_start_(ReadLoadAvg()) {}

obs::Json Provenance::Header() const {
  obs::Json header = obs::Json::MakeObject();
  header.Set("commit", EnvOr("QA_BENCH_COMMIT", "unknown"));
  header.Set("dirty", EnvOr("QA_BENCH_DIRTY", "unknown"));
#if defined(__clang__)
  header.Set("compiler", std::string("clang ") + __clang_version__);
#else
  header.Set("compiler", std::string("gcc ") + __VERSION__);
#endif
  header.Set("lib_flags", LibraryFlags(build_dir_));
  header.Set("nproc", Nproc());
  header.Set("loadavg_start", loadavg_start_);
  header.Set("loadavg_end", ReadLoadAvg());
  return header;
}

}  // namespace qa::bench
