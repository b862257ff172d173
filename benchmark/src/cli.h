#ifndef QAMARKET_BENCHMARK_CLI_H_
#define QAMARKET_BENCHMARK_CLI_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace qa::bench {

/// One benchmark invocation. Every flag takes `--flag=value` or
/// `--flag value`:
///   --workload NAME  one of WorkloadNames() (required)
///   --seed S         workload seed (default 42)
///   --seconds N      minimum measured time per run (default 12)
///   --trace 0|1      1 = the traced pass (per-layer metrics); also --traced
///   --smoke          1/20-size inputs, one rep of each kind, all checks
struct Options {
  std::string workload;
  uint64_t seed = 42;
  int seconds = 12;
  bool traced = false;
  bool smoke = false;
};

/// Strict parse: an unknown flag, a missing value or a malformed number is
/// an InvalidArgument error (the binary exits 2 on it).
util::StatusOr<Options> ParseOptions(const std::vector<std::string>& args);

}  // namespace qa::bench

#endif  // QAMARKET_BENCHMARK_CLI_H_
