#ifndef QAMARKET_BENCHMARK_GATE_H_
#define QAMARKET_BENCHMARK_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dbms/dbms_federation.h"
#include "sim/metrics.h"

namespace qa::bench {

/// The modeled outcome of one rep, pooled over the rep's runs: what the
/// correctness gate compares and the simulated end-to-end metrics read.
struct Outcome {
  int64_t arrivals = 0;
  int64_t completed = 0;
  int64_t dropped = 0;
  int64_t shed = 0;
  int64_t admission_rejects = 0;
  int64_t expired = 0;
  int64_t messages = 0;
  int64_t events = 0;
  /// Simulated response times (ms) of every completed query.
  std::vector<double> response_ms;
  /// Canonical rendering of every run's modeled metrics, in run order.
  std::string fingerprint;
  /// Accounting-identity violations found in any run (empty = none).
  std::vector<std::string> violations;

  void Add(const sim::SimMetrics& metrics);
  void Add(const dbms::DbmsRunResult& result, int64_t queries);

  /// FNV-1a hash of the fingerprint, printed as sim_digest.
  uint64_t digest() const;
};

/// The raw results of one rep, as the layers returned them. The rep's
/// clock stops before its Outcome is built from them.
struct RepRuns {
  std::vector<sim::SimMetrics> sim;
  std::vector<dbms::DbmsRunResult> dbms;
  /// Queries each dbms run was asked to replay.
  int64_t dbms_queries = 0;
  /// Failures the rep observed itself (the minidb5 replay's call errors).
  std::vector<std::string> violations;
};

/// Pools `runs` into one Outcome, in run order.
Outcome Summarize(const RepRuns& runs);

/// The accounting identities every run must satisfy: arrivals ==
/// completed + dropped, admission_rejects <= shed <= dropped and
/// expired <= dropped. Returns one message per violation.
std::vector<std::string> CheckAccounting(const sim::SimMetrics& metrics);

/// Hex rendering of a digest ("0x" + 16 digits).
std::string DigestHex(uint64_t digest);

}  // namespace qa::bench

#endif  // QAMARKET_BENCHMARK_GATE_H_
