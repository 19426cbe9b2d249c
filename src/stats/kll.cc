#include "stats/kll.h"

#include <algorithm>
#include <cmath>

#include "stats/rng.h"

namespace fairlaw::stats {
namespace {

// Floor for the geometric capacity decay: levels never shrink below
// this, so small sketches still compact in sensible steps.
constexpr size_t kMinLevelCapacity = 8;

// Merges the sorted range [first, last) into the sorted vector `into`
// in place, filling from the back so no temporary buffer is needed. Equal
// doubles are indistinguishable (Add stores no -0.0), so the result is
// the sorted multiset whichever side a tie is taken from.
void MergeSortedInto(std::vector<double>* into, const double* first,
                     const double* last) {
  if (first == last) return;
  size_t i = into->size();
  if (i == 0 || !(*first < (*into)[i - 1])) {
    into->insert(into->end(), first, last);
    return;
  }
  size_t j = static_cast<size_t>(last - first);
  size_t out = i + j;
  into->resize(out);
  double* data = into->data();
  while (j > 0) {
    if (i > 0 && first[j - 1] < data[i - 1]) {
      data[--out] = data[--i];
    } else {
      data[--out] = first[--j];
    }
  }
}

}  // namespace

KllSketch::KllSketch() : KllSketch(Options()) {}

KllSketch::KllSketch(const Options& options)
    : k_(options.k == 0 ? 1 : options.k), seed_(options.seed) {
  levels_.emplace_back();
}

size_t KllSketch::TotalRetained() const {
  size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

bool KllSketch::NextCoin() {
  ++compactions_;
  return (SplitMix64(seed_ ^ compactions_) & 1) != 0;
}

bool KllSketch::CompactOnce() {
  // One top-down walk of the capacity ladder, cap(h) = max(min, ceil(k *
  // (2/3)^(H-1-h))): the top level holds k items, each level below
  // two-thirds of the one above. The power is taken as H-1-h repeated
  // `*= 2/3` steps from k; a closed form could round differently and
  // move a compaction, which would change the sketch.
  const size_t height = levels_.size();
  size_t total_capacity = 0;
  size_t retained = 0;
  size_t overfull = height;
  size_t compactable = height;
  double cap = static_cast<double>(k_);
  for (size_t h = height; h-- > 0;) {
    const size_t size = levels_[h].size();
    const size_t capacity =
        std::max(kMinLevelCapacity, static_cast<size_t>(std::ceil(cap)));
    total_capacity += capacity;
    retained += size;
    if (size > capacity) overfull = h;
    if (size >= 2) compactable = h;
    cap *= 2.0 / 3.0;
  }
  if (retained <= total_capacity) return false;
  // Compact the lowest over-full level, or failing that the lowest one
  // holding two items. Compacting low levels first keeps the
  // cheap-to-recreate items churning and the heavy top items stable.
  const size_t target = overfull < height ? overfull : compactable;
  if (target == height) return false;

  // Grow the ladder before taking references: emplace_back may
  // reallocate levels_ and would invalidate them.
  if (target + 1 == height) levels_.emplace_back();
  auto& level = levels_[target];
  // Odd count: the first (smallest) item stays behind so the promoted
  // pairs cover an even count. The level is sorted, so every other item
  // from there on is a sorted run; pack it behind the kept item and
  // merge it into the (sorted) level above.
  const size_t kept = level.size() % 2;
  const size_t first = kept + (NextCoin() ? 1 : 0);
  size_t promoted = 0;
  for (size_t i = first; i < level.size(); i += 2) {
    level[kept + promoted++] = level[i];
  }
  MergeSortedInto(&levels_[target + 1], level.data() + kept,
                  level.data() + kept + promoted);
  level.resize(kept);
  return true;
}

void KllSketch::Add(double value) {
  // +0.0 and -0.0 compare equal, so a sorted level could hold them in
  // either order; storing only +0.0 keeps each level's bytes a function
  // of its multiset.
  if (value == 0.0) value = 0.0;
  auto& level = levels_[0];
  level.insert(std::upper_bound(level.begin(), level.end(), value), value);
  ++n_;
  if (!CompactOnce()) return;
  while (CompactOnce()) {
  }
  // The window ring holds thousands of Add-built bucket sketches, so
  // hand back the buffers this pass emptied instead of keeping their
  // peak capacity. Merge results are per-query temporaries and keep
  // theirs, which saves an allocation per level on every merge.
  for (auto& compacted : levels_) {
    if (compacted.size() <= 1) compacted.shrink_to_fit();
  }
}

void KllSketch::Merge(const KllSketch& other) {
  if (other.n_ == 0) return;
  if (other.levels_.size() > levels_.size()) {
    levels_.resize(other.levels_.size());
  }
  for (size_t h = 0; h < other.levels_.size(); ++h) {
    const std::vector<double>& theirs = other.levels_[h];
    MergeSortedInto(&levels_[h], theirs.data(),
                    theirs.data() + theirs.size());
  }
  n_ += other.n_;
  while (CompactOnce()) {
  }
}

size_t KllSketch::num_retained() const { return TotalRetained(); }

std::vector<KllSketch::WeightedItem> KllSketch::SortedItems() const {
  // Each level is sorted, so fold them in bottom-up with a stable merge:
  // equal values keep the lighter (lower-level) items first.
  std::vector<WeightedItem> items;
  items.reserve(TotalRetained());
  for (size_t h = 0; h < levels_.size(); ++h) {
    const auto weight = static_cast<uint64_t>(1) << h;
    const auto mid = static_cast<std::ptrdiff_t>(items.size());
    for (double value : levels_[h]) items.push_back({value, weight});
    std::inplace_merge(items.begin(), items.begin() + mid, items.end(),
                       [](const WeightedItem& a, const WeightedItem& b) {
                         return a.value < b.value;
                       });
  }
  return items;
}

Result<double> KllSketch::Quantile(double q) const {
  if (n_ == 0) {
    return Status::Invalid("KllSketch::Quantile on empty sketch");
  }
  if (!(q >= 0.0 && q <= 1.0)) {
    return Status::Invalid("quantile must lie in [0, 1]");
  }
  const auto items = SortedItems();
  // Total retained weight can differ from n_ when compactions dropped
  // odd items; rank against the retained mass so q=1 hits the max.
  uint64_t total_weight = 0;
  for (const auto& item : items) total_weight += item.weight;
  const double target = q * static_cast<double>(total_weight);
  double cumulative = 0.0;
  for (const auto& item : items) {
    cumulative += static_cast<double>(item.weight);
    if (cumulative >= target) return item.value;
  }
  return items.back().value;
}

Result<double> KllSketch::Cdf(double x) const {
  if (n_ == 0) {
    return Status::Invalid("KllSketch::Cdf on empty sketch");
  }
  const auto items = SortedItems();
  uint64_t total_weight = 0;
  uint64_t at_or_below = 0;
  for (const auto& item : items) {
    total_weight += item.weight;
    if (item.value <= x) at_or_below += item.weight;
  }
  return static_cast<double>(at_or_below) /
         static_cast<double>(total_weight);
}

namespace {

// Two-pointer sweep over the union support of two weight-sorted item
// lists, invoking `visit(x, gap_to_next, fp, fq)` at every distinct
// union value with the CDFs evaluated just after x. Shared by the KS
// (max gap) and W1 (integrated gap) kernels below.
template <typename Visit>
Status SweepSketchCdfs(const KllSketch& p, const KllSketch& q,
                       Visit&& visit) {
  if (p.empty() || q.empty()) {
    return Status::Invalid(
        "sketch distance requires two non-empty sketches");
  }
  const auto items_p = p.SortedItems();
  const auto items_q = q.SortedItems();
  uint64_t total_p = 0;
  uint64_t total_q = 0;
  for (const auto& item : items_p) total_p += item.weight;
  for (const auto& item : items_q) total_q += item.weight;

  size_t i = 0;
  size_t j = 0;
  uint64_t mass_p = 0;
  uint64_t mass_q = 0;
  while (i < items_p.size() || j < items_q.size()) {
    double x;
    if (j >= items_q.size()) {
      x = items_p[i].value;
    } else if (i >= items_p.size()) {
      x = items_q[j].value;
    } else {
      x = std::min(items_p[i].value, items_q[j].value);
    }
    while (i < items_p.size() && items_p[i].value == x) {
      mass_p += items_p[i].weight;
      ++i;
    }
    while (j < items_q.size() && items_q[j].value == x) {
      mass_q += items_q[j].weight;
      ++j;
    }
    double next = x;
    if (i < items_p.size()) next = items_p[i].value;
    if (j < items_q.size()) {
      next = (i < items_p.size()) ? std::min(next, items_q[j].value)
                                  : items_q[j].value;
    }
    const double fp =
        static_cast<double>(mass_p) / static_cast<double>(total_p);
    const double fq =
        static_cast<double>(mass_q) / static_cast<double>(total_q);
    visit(x, next - x, fp, fq);
  }
  return Status::OK();
}

}  // namespace

Result<double> KolmogorovSmirnovSketch(const KllSketch& p,
                                       const KllSketch& q) {
  double ks = 0.0;
  Status status =
      SweepSketchCdfs(p, q, [&ks](double, double, double fp, double fq) {
        ks = std::max(ks, std::abs(fp - fq));
      });
  if (!status.ok()) return status;
  return ks;
}

Result<double> Wasserstein1Sketch(const KllSketch& p, const KllSketch& q) {
  double w1 = 0.0;
  Status status =
      SweepSketchCdfs(p, q, [&w1](double, double gap, double fp, double fq) {
        w1 += gap * std::abs(fp - fq);
      });
  if (!status.ok()) return status;
  return w1;
}

}  // namespace fairlaw::stats
