#include "stats/distance.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "stats/sort.h"

namespace fairlaw::stats {
namespace {

Status CheckAligned(std::span<const double> p, std::span<const double> q) {
  if (p.size() != q.size()) {
    return Status::Invalid("distributions have different support sizes");
  }
  if (p.empty()) return Status::Invalid("empty distributions");
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] < 0.0 || q[i] < 0.0) {
      return Status::Invalid("negative probability mass");
    }
  }
  return Status::OK();
}

Status CheckSorted(std::span<const double> v, const char* fn,
                   const char* which) {
  if (v.empty()) {
    return Status::Invalid(std::string(fn) + ": empty sample");
  }
  if (!std::is_sorted(v.begin(), v.end())) {
    return Status::Invalid(std::string(fn) + ": " + which +
                           " is not sorted ascending");
  }
  return Status::OK();
}

Status CheckAlignedHistograms(const Histogram& p, const Histogram& q,
                              const char* fn) {
  if (p.num_bins() != q.num_bins() || p.lo() != q.lo() || p.hi() != q.hi()) {
    return Status::Invalid(std::string(fn) + ": histograms must share the "
                           "same range and bin count");
  }
  return Status::OK();
}

/// Reads a sorted span front to back, as SortedDifference::Walk reads a
/// difference, so one kernel body serves both.
class SpanWalk {
 public:
  explicit SpanWalk(std::span<const double> values) : at_(values.data()) {}
  double value() const { return *at_; }
  void Step() { ++at_; }

 private:
  const double* at_;
};

/// Merged-quantile sweep over two ascending samples: the integral of
/// |F_x^{-1}(u) - F_y^{-1}(u)| du. Each sample point owns a block of
/// quantile mass, and on the intersection of two blocks both inverse CDFs
/// are constant. `ys` walks the `y_size` values of y.
template <typename Walk>
double Wasserstein1SortedCore(std::span<const double> xs, size_t y_size,
                              Walk ys) {
  const double nx = static_cast<double>(xs.size());
  const double ny = static_cast<double>(y_size);
  size_t i = 0;
  size_t j = 0;
  double cursor = 0.0;  // current quantile level
  double total = 0.0;
  while (i < xs.size() && j < y_size) {
    double next_x = static_cast<double>(i + 1) / nx;
    double next_y = static_cast<double>(j + 1) / ny;
    double next = std::min(next_x, next_y);
    total += (next - cursor) * std::fabs(xs[i] - ys.value());
    cursor = next;
    if (next_x <= next) ++i;
    if (next_y <= next) {
      ++j;
      ys.Step();
    }
  }
  return total;
}

/// CDF sweep over two ascending samples: sup_t |F_x(t) - F_y(t)|.
template <typename Walk>
double KolmogorovSmirnovSortedCore(std::span<const double> xs, size_t y_size,
                                   Walk ys) {
  const double nx = static_cast<double>(xs.size());
  const double ny = static_cast<double>(y_size);
  size_t i = 0;
  size_t j = 0;
  double best = 0.0;
  while (i < xs.size() && j < y_size) {
    double t = std::min(xs[i], ys.value());
    while (i < xs.size() && xs[i] <= t) ++i;
    while (j < y_size && ys.value() <= t) {
      ++j;
      ys.Step();
    }
    best = std::max(best, std::fabs(static_cast<double>(i) / nx -
                                    static_cast<double>(j) / ny));
  }
  return best;
}

/// Wasserstein1SortedCore and KolmogorovSmirnovSortedCore in one walk
/// of `ys`. Each y value goes to the W1 sweep, which runs the iterations
/// its core runs while that value is current, and then to the KS sweep.
/// A KS step consumes every y equal to its threshold before it scores,
/// so the KS sweep keeps the threshold pending until a larger y (or the
/// end) shows the run is over. Both accumulate exactly as their cores do.
template <typename Walk>
SampleDistances DistancesSortedCore(std::span<const double> xs,
                                    size_t y_size, Walk ys) {
  const size_t x_size = xs.size();
  const double nx = static_cast<double>(x_size);
  const double ny = static_cast<double>(y_size);
  size_t w1_i = 0;
  double cursor = 0.0;  // W1: current quantile level
  double total = 0.0;
  size_t ks_i = 0;
  double best = 0.0;
  bool ks_open = true;  // the KS core's loop has not ended
  bool pending = false;
  double threshold = 0.0;  // the pending KS threshold
  auto score = [&](size_t j) {
    best = std::max(best, std::fabs(static_cast<double>(ks_i) / nx -
                                    static_cast<double>(j) / ny));
  };
  for (size_t j = 0; j < y_size; ++j, ys.Step()) {
    const double y = ys.value();
    while (w1_i < x_size) {
      const double next_x = static_cast<double>(w1_i + 1) / nx;
      const double next_y = static_cast<double>(j + 1) / ny;
      const double next = std::min(next_x, next_y);
      total += (next - cursor) * std::fabs(xs[w1_i] - y);
      cursor = next;
      if (next_x <= next) ++w1_i;
      if (next_y <= next) break;
    }
    if (!ks_open) continue;
    if (pending) {
      if (!(threshold < y)) continue;  // y joins the pending step
      score(j);
      pending = false;
      if (ks_i == x_size) {
        ks_open = false;
        continue;
      }
    }
    // Steps at x thresholds below y consume no y.
    while (ks_i < x_size && xs[ks_i] < y) {
      const double t = xs[ks_i];
      while (ks_i < x_size && xs[ks_i] <= t) ++ks_i;
      score(j);
    }
    if (ks_i == x_size) {
      ks_open = false;
      continue;
    }
    while (ks_i < x_size && xs[ks_i] <= y) ++ks_i;
    pending = true;
    threshold = y;
  }
  if (pending) score(y_size);
  return SampleDistances{total, best};
}

}  // namespace

Result<double> TotalVariation(std::span<const double> p,
                              std::span<const double> q) {
  FAIRLAW_RETURN_NOT_OK(CheckAligned(p, q));
  double total = 0.0;
  for (size_t i = 0; i < p.size(); ++i) total += std::fabs(p[i] - q[i]);
  return 0.5 * total;
}

Result<double> Hellinger(std::span<const double> p,
                         std::span<const double> q) {
  FAIRLAW_RETURN_NOT_OK(CheckAligned(p, q));
  double bhattacharyya = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    bhattacharyya += std::sqrt(p[i] * q[i]);
  }
  // Clamp: rounding can push the coefficient slightly above 1.
  return std::sqrt(std::max(0.0, 1.0 - std::min(1.0, bhattacharyya)));
}

Result<double> Wasserstein1Samples(std::span<const double> x,
                                   std::span<const double> y) {
  if (x.empty() || y.empty()) {
    return Status::Invalid("Wasserstein1Samples: empty sample");
  }
  obs::TraceSpan span("distance/wasserstein1");
  std::vector<double> xs(x.begin(), x.end());
  std::vector<double> ys(y.begin(), y.end());
  SortDoubles(xs);
  SortDoubles(ys);
  return Wasserstein1SortedCore(xs, ys.size(), SpanWalk(ys));
}

Result<double> Wasserstein1Presorted(std::span<const double> x_sorted,
                                     std::span<const double> y_sorted) {
  FAIRLAW_RETURN_NOT_OK(CheckSorted(x_sorted, "Wasserstein1Presorted", "x"));
  FAIRLAW_RETURN_NOT_OK(CheckSorted(y_sorted, "Wasserstein1Presorted", "y"));
  obs::TraceSpan span("distance/wasserstein1_presorted");
  return Wasserstein1SortedCore(x_sorted, y_sorted.size(), SpanWalk(y_sorted));
}

Result<double> Wasserstein1Binned(const Histogram& p, const Histogram& q) {
  FAIRLAW_RETURN_NOT_OK(CheckAlignedHistograms(p, q, "Wasserstein1Binned"));
  obs::TraceSpan span("distance/wasserstein1_binned");
  // W1 on the line = integral of |F_p - F_q| dt; with all mass at bin
  // centers both CDFs are constant between consecutive centers, which for
  // equal-width bins are one bin width apart.
  const std::vector<double> pp = p.Probabilities();
  const std::vector<double> qq = q.Probabilities();
  const double width = (p.hi() - p.lo()) / static_cast<double>(p.num_bins());
  double cdf_p = 0.0;
  double cdf_q = 0.0;
  double total = 0.0;
  for (size_t b = 0; b + 1 < pp.size(); ++b) {
    cdf_p += pp[b];
    cdf_q += qq[b];
    total += std::fabs(cdf_p - cdf_q) * width;
  }
  return total;
}

Result<double> KolmogorovSmirnov(std::span<const double> x,
                                 std::span<const double> y) {
  if (x.empty() || y.empty()) {
    return Status::Invalid("KolmogorovSmirnov: empty sample");
  }
  obs::TraceSpan span("distance/kolmogorov_smirnov");
  std::vector<double> xs(x.begin(), x.end());
  std::vector<double> ys(y.begin(), y.end());
  SortDoubles(xs);
  SortDoubles(ys);
  return KolmogorovSmirnovSortedCore(xs, ys.size(), SpanWalk(ys));
}

Result<double> KolmogorovSmirnovPresorted(std::span<const double> x_sorted,
                                          std::span<const double> y_sorted) {
  FAIRLAW_RETURN_NOT_OK(
      CheckSorted(x_sorted, "KolmogorovSmirnovPresorted", "x"));
  FAIRLAW_RETURN_NOT_OK(
      CheckSorted(y_sorted, "KolmogorovSmirnovPresorted", "y"));
  obs::TraceSpan span("distance/kolmogorov_smirnov_presorted");
  return KolmogorovSmirnovSortedCore(x_sorted, y_sorted.size(),
                                     SpanWalk(y_sorted));
}

Result<AscendingSpan> AscendingSpan::Make(std::span<const double> values,
                                          std::string_view what) {
  if (!std::is_sorted(values.begin(), values.end())) {
    return Status::Invalid(std::string(what) + " is not sorted ascending");
  }
  return AscendingSpan(values);
}

Result<SampleDistances> Wasserstein1AndKsPresorted(
    AscendingSpan x_sorted, const SortedDifference& y_sorted,
    std::string_view parent_path) {
  if (x_sorted.values().empty() || y_sorted.size() == 0) {
    return Status::Invalid("Wasserstein1AndKsPresorted: empty sample");
  }
  obs::TraceSpan span("distance/w1_ks_presorted", parent_path);
  return DistancesSortedCore(x_sorted.values(), y_sorted.size(),
                             SortedDifference::Walk(y_sorted));
}

}  // namespace fairlaw::stats
