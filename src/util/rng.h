#ifndef QAMARKET_UTIL_RNG_H_
#define QAMARKET_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace qa::util {

/// Deterministic pseudo-random number generator used throughout the library.
///
/// All stochastic components (workload generators, catalog placement, baseline
/// allocators with randomized choices) draw from an explicitly seeded Rng so
/// that every experiment is reproducible from its printed seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed), seed_(seed) {}

  uint64_t seed() const { return seed_; }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform real in [lo, hi).
  double UniformReal(double lo, double hi);

  /// Bernoulli draw with success probability `p` in [0, 1].
  bool Bernoulli(double p);

  /// Exponentially distributed real with the given mean (> 0).
  double Exponential(double mean);

  /// Zipf-distributed integer rank in [1, n] with exponent `alpha` > 0.
  ///
  /// P(X = k) is proportional to 1 / k^alpha. Uses inverse-CDF sampling over
  /// the precomputed harmonic weights (n is at most a few thousand in all of
  /// our workloads, so the O(log n) lookup after O(n) setup is fine).
  int64_t Zipf(int64_t n, double alpha);

  /// Returns a random permutation of {0, 1, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// Picks `k` distinct indices out of [0, n) uniformly (k <= n).
  std::vector<int> Sample(int n, int k);

  /// Forks an independent generator; the child's stream is a deterministic
  /// function of this generator's current state.
  Rng Fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  struct ZipfTable {
    int64_t n = 0;
    double alpha = 0.0;
    std::vector<double> cdf;
  };

  const ZipfTable& GetZipfTable(int64_t n, double alpha);

  std::mt19937_64 engine_;
  uint64_t seed_;
  std::vector<ZipfTable> zipf_cache_;
};

/// Counter-based splittable stream for per-event randomness (SplitMix64).
///
/// Unlike Rng, whose engine state advances with every draw anywhere in the
/// program, a SplitMix64 stream is a pure function of its seed: seeding one
/// per simulation event (`SplitMix64(MixSeed(run_seed, event_index))`)
/// yields draws that depend only on (run seed, event index) — never on how
/// many draws other events made. This is what keeps sampled solicitation
/// byte-identical at any thread count and under any event interleaving.
/// The state is 8 bytes and construction is free, so making one per event
/// on a hot path costs nothing.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Next 64 uniform bits.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, n) for n >= 1 (Lemire's multiply-shift; the
  /// bias over 64 input bits is < 2^-32 for any n our federations reach).
  uint64_t NextBounded(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

 private:
  uint64_t state_;
};

/// Mixes a run-level seed with a per-event counter into an independent
/// SplitMix64 seed (a splitmix finalizer over the xor, so that nearby
/// counters produce uncorrelated streams).
inline uint64_t MixSeed(uint64_t seed, uint64_t counter) {
  return SplitMix64(seed ^ (counter * 0xd6e8feb86659fd93ULL)).Next();
}

}  // namespace qa::util

#endif  // QAMARKET_UTIL_RNG_H_
