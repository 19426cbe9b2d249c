#include "stats/histogram.h"

#include <algorithm>

namespace fairlaw::stats {

Result<Histogram> Histogram::Make(double lo, double hi, size_t bins) {
  if (!(lo < hi)) return Status::Invalid("Histogram: requires lo < hi");
  if (bins == 0) return Status::Invalid("Histogram: requires bins >= 1");
  return Histogram(lo, hi, bins);
}

size_t Histogram::BinIndex(double value) const {
  if (value <= lo_) return 0;
  if (value >= hi_) return counts_.size() - 1;
  double fraction = (value - lo_) / (hi_ - lo_);
  size_t index = static_cast<size_t>(fraction *
                                     static_cast<double>(counts_.size()));
  return std::min(index, counts_.size() - 1);
}

void Histogram::Add(double value, double weight) {
  counts_[BinIndex(value)] += weight;
  total_weight_ += weight;
}

void Histogram::AddAll(std::span<const double> values) {
  for (double v : values) Add(v);
}

std::vector<double> Histogram::Probabilities() const {
  std::vector<double> probs(counts_.size());
  if (total_weight_ <= 0.0) {
    std::fill(probs.begin(), probs.end(),
              1.0 / static_cast<double>(counts_.size()));
    return probs;
  }
  for (size_t i = 0; i < counts_.size(); ++i) {
    probs[i] = counts_[i] / total_weight_;
  }
  return probs;
}

}  // namespace fairlaw::stats
