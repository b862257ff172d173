#include "gate.h"

#include <cstdio>

#include "sim/metrics_json.h"

namespace qa::bench {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t Fnv(const void* data, size_t size, uint64_t hash = kFnvOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

template <typename T>
uint64_t HashVector(const std::vector<T>& values) {
  return Fnv(values.data(), values.size() * sizeof(T));
}

}  // namespace

void Outcome::Add(const sim::SimMetrics& metrics) {
  arrivals += metrics.arrivals;
  completed += metrics.completed;
  dropped += metrics.dropped;
  shed += metrics.shed;
  admission_rejects += metrics.admission_rejects;
  expired += metrics.expired;
  messages += metrics.messages;
  events += metrics.events_dispatched;
  const std::vector<double>& samples = metrics.response_time_ms.values();
  response_ms.insert(response_ms.end(), samples.begin(), samples.end());
  // The summary JSON the figure benches report, plus exact hashes of the
  // per-query and per-node vectors it only summarizes.
  fingerprint += sim::MetricsToJson(metrics).Dump();
  fingerprint += DigestHex(HashVector(samples));
  fingerprint += DigestHex(HashVector(metrics.node_completed));
  fingerprint += DigestHex(HashVector(metrics.node_last_idle));
  fingerprint += DigestHex(HashVector(metrics.completions.samples()));
  fingerprint += '\n';
  for (std::string& violation : CheckAccounting(metrics)) {
    violations.push_back(std::move(violation));
  }
}

void Outcome::Add(const dbms::DbmsRunResult& result, int64_t queries) {
  arrivals += queries;
  completed += result.completed;
  dropped += result.dropped;
  const std::vector<double>& samples = result.total_ms.values();
  response_ms.insert(response_ms.end(), samples.begin(), samples.end());
  char counts[96];
  std::snprintf(counts, sizeof(counts), "completed=%lld retries=%lld dropped=%lld ",
                static_cast<long long>(result.completed),
                static_cast<long long>(result.retries),
                static_cast<long long>(result.dropped));
  fingerprint += counts;
  fingerprint += DigestHex(HashVector(result.assign_ms.values()));
  fingerprint += DigestHex(HashVector(samples));
  fingerprint += DigestHex(HashVector(result.exec_ms.values()));
  fingerprint += '\n';
  if (queries != result.completed + result.dropped) {
    violations.push_back("queries " + std::to_string(queries) +
                         " != completed " + std::to_string(result.completed) +
                         " + dropped " + std::to_string(result.dropped));
  }
}

Outcome Summarize(const RepRuns& runs) {
  Outcome outcome;
  for (const sim::SimMetrics& metrics : runs.sim) outcome.Add(metrics);
  for (const dbms::DbmsRunResult& result : runs.dbms) {
    outcome.Add(result, runs.dbms_queries);
  }
  outcome.violations.insert(outcome.violations.end(), runs.violations.begin(),
                            runs.violations.end());
  return outcome;
}

uint64_t Outcome::digest() const {
  return Fnv(fingerprint.data(), fingerprint.size());
}

std::vector<std::string> CheckAccounting(const sim::SimMetrics& m) {
  std::vector<std::string> out;
  auto str = [](int64_t v) { return std::to_string(v); };
  if (m.arrivals != m.completed + m.dropped) {
    out.push_back("arrivals " + str(m.arrivals) + " != completed " +
                  str(m.completed) + " + dropped " + str(m.dropped));
  }
  if (m.admission_rejects > m.shed || m.shed > m.dropped) {
    out.push_back("admission_rejects " + str(m.admission_rejects) +
                  " <= shed " + str(m.shed) + " <= dropped " +
                  str(m.dropped) + " does not hold");
  }
  if (m.expired > m.dropped) {
    out.push_back("expired " + str(m.expired) + " > dropped " +
                  str(m.dropped));
  }
  return out;
}

std::string DigestHex(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace qa::bench
