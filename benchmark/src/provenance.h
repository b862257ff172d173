#ifndef QAMARKET_BENCHMARK_PROVENANCE_H_
#define QAMARKET_BENCHMARK_PROVENANCE_H_

#include <string>

#include "obs/json.h"

namespace qa::bench {

/// The header every result file starts with: git commit and dirty flag
/// (from QA_BENCH_COMMIT / QA_BENCH_DIRTY, which run.sh exports; "unknown"
/// outside a git checkout), compiler, the qa_* libraries' compile flags as
/// recorded in `build_dir`/compile_commands.json, nproc, and the load
/// average at start and at the end of the run.
class Provenance {
 public:
  explicit Provenance(std::string build_dir);

  /// Header with the current load average as the end reading.
  obs::Json Header() const;

 private:
  std::string build_dir_;
  std::string loadavg_start_;
};

/// Contents of /proc/loadavg without the trailing newline ("" if absent).
std::string ReadLoadAvg();

/// CPUs this process may run on (what `nproc` prints).
int Nproc();

/// Resident set size now, in MB (from /proc/self/statm).
double ResidentMb();

/// Peak resident set size of the process so far, in MB (ru_maxrss).
double PeakResidentMb();

}  // namespace qa::bench

#endif  // QAMARKET_BENCHMARK_PROVENANCE_H_
