#include "stats/bootstrap.h"

#include <algorithm>

#include "obs/obs.h"
#include "stats/descriptive.h"

namespace fairlaw::stats {
namespace {

std::vector<double> Resample(std::span<const double> sample, Rng* rng) {
  std::vector<double> out(sample.size());
  for (double& v : out) {
    v = sample[rng->UniformInt(sample.size())];
  }
  return out;
}

Result<ConfidenceInterval> PercentileInterval(std::vector<double> replicas,
                                              double estimate, double level) {
  std::sort(replicas.begin(), replicas.end());
  const double alpha = (1.0 - level) / 2.0;
  ConfidenceInterval ci;
  ci.estimate = estimate;
  ci.level = level;
  FAIRLAW_ASSIGN_OR_RETURN(ci.lower, Quantile(replicas, alpha));
  FAIRLAW_ASSIGN_OR_RETURN(ci.upper, Quantile(replicas, 1.0 - alpha));
  return ci;
}

/// Cheap parameter checks shared by both entry points; runs before any
/// sample inspection or allocation so a bad replicate count or level is
/// reported first regardless of the sample contents.
Status CheckBootstrapArgs(int replicates, double level, const Rng* rng,
                          const char* fn) {
  if (replicates < 2) {
    return Status::Invalid(std::string(fn) + ": need >= 2 replicates");
  }
  if (level <= 0.0 || level >= 1.0) {
    return Status::Invalid(std::string(fn) + ": level must lie in (0,1)");
  }
  if (rng == nullptr) return Status::Invalid(std::string(fn) + ": null rng");
  return Status::OK();
}

/// The seed of replicate r's private stream. Mixing the counter before
/// xoring decorrelates streams even though the counters are sequential.
uint64_t ReplicateSeed(uint64_t stream_base, size_t r) {
  return SplitMix64(stream_base ^ SplitMix64(static_cast<uint64_t>(r)));
}

}  // namespace

Result<ConfidenceInterval> BootstrapCi(std::span<const double> sample,
                                       const Statistic& statistic,
                                       int replicates, double level,
                                       Rng* rng) {
  obs::TraceSpan span("bootstrap_ci");
  FAIRLAW_RETURN_NOT_OK(
      CheckBootstrapArgs(replicates, level, rng, "BootstrapCi"));
  if (sample.empty()) return Status::Invalid("BootstrapCi: empty sample");
  if (sample.size() == 1) {
    return Status::Invalid("BootstrapCi: sample of size 1 resamples to "
                           "itself; the interval would be zero-width");
  }
  // One draw from the caller's rng anchors all replicate streams, so the
  // whole computation stays reproducible from the caller's seed.
  const uint64_t stream_base = rng->Next();
  std::vector<double> replicas(static_cast<size_t>(replicates));
  for (size_t r = 0; r < replicas.size(); ++r) {
    Rng replicate_rng(ReplicateSeed(stream_base, r));
    replicas[r] = statistic(Resample(sample, &replicate_rng));
  }
  obs::GetHistogram("bootstrap.replicates")->Record(replicas.size());
  return PercentileInterval(std::move(replicas), statistic(sample), level);
}

Result<ConfidenceInterval> BootstrapCiTwoSample(
    std::span<const double> sample_a, std::span<const double> sample_b,
    const TwoSampleStatistic& statistic, int replicates, double level,
    Rng* rng) {
  obs::TraceSpan span("bootstrap_ci_two_sample");
  FAIRLAW_RETURN_NOT_OK(
      CheckBootstrapArgs(replicates, level, rng, "BootstrapCiTwoSample"));
  if (sample_a.empty() || sample_b.empty()) {
    return Status::Invalid("BootstrapCiTwoSample: empty sample");
  }
  if (sample_a.size() == 1 && sample_b.size() == 1) {
    return Status::Invalid("BootstrapCiTwoSample: both samples have size 1; "
                           "every replicate is identical and the interval "
                           "would be zero-width");
  }
  const uint64_t stream_base = rng->Next();
  std::vector<double> replicas(static_cast<size_t>(replicates));
  for (size_t r = 0; r < replicas.size(); ++r) {
    Rng replicate_rng(ReplicateSeed(stream_base, r));
    std::vector<double> ra = Resample(sample_a, &replicate_rng);
    std::vector<double> rb = Resample(sample_b, &replicate_rng);
    replicas[r] = statistic(ra, rb);
  }
  obs::GetHistogram("bootstrap.replicates")->Record(replicas.size());
  return PercentileInterval(std::move(replicas),
                            statistic(sample_a, sample_b), level);
}

}  // namespace fairlaw::stats
