#ifndef FAIRLAW_STATS_RNG_H_
#define FAIRLAW_STATS_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fairlaw::stats {

/// One splitmix64 mixing step: maps x to a well-scrambled 64-bit value.
/// The building block for counter-based RNG streams — replicate r of a
/// parallel computation seeds its own Rng from SplitMix64(base ^ f(r)),
/// so the draw sequence depends only on (base, r), never on which thread
/// runs the replicate.
uint64_t SplitMix64(uint64_t x);

/// Deterministic pseudo-random generator (xoshiro256++).
///
/// All randomized components of fairlaw (generators, model
/// initialization, simulators) draw from an explicitly passed Rng so that
/// every experiment is reproducible from a single seed. The engine is
/// xoshiro256++ seeded through splitmix64, which has a 2^256-1 period and
/// passes BigCrush; the standard library engines are avoided because their
/// distributions are implementation-defined and would make results differ
/// across platforms.
class Rng {
 public:
  /// Seeds the four 64-bit state words from `seed` via splitmix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit output.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal deviate (Box–Muller with caching).
  double Normal();

  /// Normal deviate with the given mean and standard deviation
  /// (stddev >= 0).
  double Normal(double mean, double stddev);

  /// Bernoulli draw: true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Binomial draw as n Bernoulli trials (fine for the n used here).
  int64_t Binomial(int64_t n, double p);

  /// Exponential deviate with the given rate (> 0).
  double Exponential(double rate);

  /// Draws an index in [0, weights.size()) proportionally to non-negative
  /// `weights`. If all weights are zero, draws uniformly.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Returns k distinct indices sampled uniformly from [0, n). Requires
  /// k <= n. Result order is random.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent child generator (for parallel streams).
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_RNG_H_
