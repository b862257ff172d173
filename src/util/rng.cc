#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace qa::util {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::UniformReal(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

const Rng::ZipfTable& Rng::GetZipfTable(int64_t n, double alpha) {
  for (const ZipfTable& t : zipf_cache_) {
    // Cache-key identity: alpha is caller-provided and stored verbatim, so
    // only the bitwise-same exponent may reuse a table.
    // qa-lint: allow(QA-NUM-001)
    if (t.n == n && t.alpha == alpha) return t;
  }
  ZipfTable table;
  table.n = n;
  table.alpha = alpha;
  table.cdf.resize(static_cast<size_t>(n));
  double sum = 0.0;
  for (int64_t k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), alpha);
    table.cdf[static_cast<size_t>(k - 1)] = sum;
  }
  for (double& v : table.cdf) v /= sum;
  zipf_cache_.push_back(std::move(table));
  return zipf_cache_.back();
}

int64_t Rng::Zipf(int64_t n, double alpha) {
  assert(n >= 1);
  const ZipfTable& table = GetZipfTable(n, alpha);
  double u = UniformReal(0.0, 1.0);
  auto it = std::lower_bound(table.cdf.begin(), table.cdf.end(), u);
  if (it == table.cdf.end()) return n;
  return static_cast<int64_t>(it - table.cdf.begin()) + 1;
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), engine_);
  return perm;
}

std::vector<int> Rng::Sample(int n, int k) {
  assert(k <= n);
  std::vector<int> perm = Permutation(n);
  perm.resize(static_cast<size_t>(k));
  return perm;
}

Rng Rng::Fork() { return Rng(engine_()); }

}  // namespace qa::util
