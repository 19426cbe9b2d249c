#include "stats/hypothesis.h"

#include <math.h>  // lgamma_r

#include <algorithm>
#include <cmath>
#include <numbers>

namespace fairlaw::stats {
namespace {

// std::lgamma without its store to the global `signgam`, which is a data
// race when chi-square tails are computed on several threads at once
// (DetectProxies scores its candidates on a pool). Same values.
double LogGamma(double s) {
  int sign = 0;
  return lgamma_r(s, &sign);
}

// Series expansion of the lower regularized incomplete gamma P(s, x);
// converges for x < s + 1. (Numerical Recipes "gser".)
double GammaPSeries(double s, double x) {
  double ap = s;
  double sum = 1.0 / s;
  double del = sum;
  for (int i = 0; i < 500; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + s * std::log(x) - LogGamma(s));
}

// Continued fraction for the upper regularized incomplete gamma Q(s, x);
// converges for x >= s + 1. (Numerical Recipes "gcf".)
double GammaQContinuedFraction(double s, double x) {
  const double kTiny = 1e-300;
  double b = x + 1.0 - s;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - s);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  return std::exp(-x + s * std::log(x) - LogGamma(s)) * h;
}

}  // namespace

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

Result<double> NormalQuantile(double p) {
  if (p <= 0.0 || p >= 1.0) {
    return Status::Invalid("NormalQuantile: p must lie in (0,1)");
  }
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double x;
  if (p < p_low) {
    double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    double q = p - 0.5;
    double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step against the exact CDF.
  double e = NormalCdf(x) - p;
  double u = e * std::sqrt(2.0 * std::numbers::pi) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double RegularizedGammaQ(double s, double x) {
  if (x < 0.0 || s <= 0.0) return 1.0;
  if (x == 0.0) return 1.0;
  if (x < s + 1.0) return 1.0 - GammaPSeries(s, x);
  return GammaQContinuedFraction(s, x);
}

Result<TestResult> TwoProportionZTest(int64_t successes_a, int64_t n_a,
                                      int64_t successes_b, int64_t n_b,
                                      double alpha) {
  if (n_a <= 0 || n_b <= 0) {
    return Status::Invalid("TwoProportionZTest: group sizes must be positive");
  }
  if (successes_a < 0 || successes_a > n_a || successes_b < 0 ||
      successes_b > n_b) {
    return Status::Invalid("TwoProportionZTest: successes out of range");
  }
  const double pa = static_cast<double>(successes_a) /
                    static_cast<double>(n_a);
  const double pb = static_cast<double>(successes_b) /
                    static_cast<double>(n_b);
  const double pooled = static_cast<double>(successes_a + successes_b) /
                        static_cast<double>(n_a + n_b);
  const double se = std::sqrt(pooled * (1.0 - pooled) *
                              (1.0 / static_cast<double>(n_a) +
                               1.0 / static_cast<double>(n_b)));
  TestResult result;
  if (se == 0.0) {
    // Degenerate pooled rate (all successes or all failures): the samples
    // are indistinguishable under H0.
    result.statistic = 0.0;
    result.p_value = 1.0;
    result.significant = false;
    return result;
  }
  result.statistic = (pa - pb) / se;
  result.p_value = 2.0 * (1.0 - NormalCdf(std::fabs(result.statistic)));
  result.significant = result.p_value < alpha;
  return result;
}

namespace {

struct TableTotals {
  std::vector<double> row;
  std::vector<double> col;
  double total = 0.0;
};

Result<TableTotals> ComputeTotals(
    const std::vector<std::vector<int64_t>>& table) {
  if (table.empty() || table[0].empty()) {
    return Status::Invalid("contingency table is empty");
  }
  const size_t cols = table[0].size();
  TableTotals totals;
  totals.row.assign(table.size(), 0.0);
  totals.col.assign(cols, 0.0);
  for (size_t r = 0; r < table.size(); ++r) {
    if (table[r].size() != cols) {
      return Status::Invalid("contingency table is ragged");
    }
    for (size_t c = 0; c < cols; ++c) {
      if (table[r][c] < 0) {
        return Status::Invalid("contingency table has negative count");
      }
      double v = static_cast<double>(table[r][c]);
      totals.row[r] += v;
      totals.col[c] += v;
      totals.total += v;
    }
  }
  if (totals.total <= 0.0) {
    return Status::Invalid("contingency table has zero total");
  }
  return totals;
}

}  // namespace

Result<TestResult> ChiSquareIndependence(
    const std::vector<std::vector<int64_t>>& table, double alpha) {
  FAIRLAW_ASSIGN_OR_RETURN(TableTotals totals, ComputeTotals(table));
  const size_t rows = table.size();
  const size_t cols = table[0].size();
  double chi2 = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      double expected = totals.row[r] * totals.col[c] / totals.total;
      if (expected == 0.0) continue;  // empty row/col contributes nothing
      double diff = static_cast<double>(table[r][c]) - expected;
      chi2 += diff * diff / expected;
    }
  }
  // Degrees of freedom count only non-empty rows/columns.
  size_t eff_rows = 0;
  for (double rt : totals.row) eff_rows += rt > 0.0 ? 1 : 0;
  size_t eff_cols = 0;
  for (double ct : totals.col) eff_cols += ct > 0.0 ? 1 : 0;
  if (eff_rows < 2 || eff_cols < 2) {
    return Status::Invalid("chi-square test needs >= 2 non-empty rows and "
                           "columns");
  }
  const double df = static_cast<double>((eff_rows - 1) * (eff_cols - 1));
  TestResult result;
  result.statistic = chi2;
  result.p_value = RegularizedGammaQ(df / 2.0, chi2 / 2.0);
  result.significant = result.p_value < alpha;
  return result;
}

Result<double> CramersV(const std::vector<std::vector<int64_t>>& table) {
  FAIRLAW_ASSIGN_OR_RETURN(TestResult chi, ChiSquareIndependence(table));
  FAIRLAW_ASSIGN_OR_RETURN(TableTotals totals, ComputeTotals(table));
  size_t eff_rows = 0;
  for (double rt : totals.row) eff_rows += rt > 0.0 ? 1 : 0;
  size_t eff_cols = 0;
  for (double ct : totals.col) eff_cols += ct > 0.0 ? 1 : 0;
  const double k = static_cast<double>(std::min(eff_rows, eff_cols));
  return std::sqrt(chi.statistic / (totals.total * (k - 1.0)));
}

Result<double> MutualInformation(
    const std::vector<std::vector<int64_t>>& table) {
  FAIRLAW_ASSIGN_OR_RETURN(TableTotals totals, ComputeTotals(table));
  double mi = 0.0;
  for (size_t r = 0; r < table.size(); ++r) {
    for (size_t c = 0; c < table[0].size(); ++c) {
      double joint = static_cast<double>(table[r][c]) / totals.total;
      if (joint == 0.0) continue;
      double pr = totals.row[r] / totals.total;
      double pc = totals.col[c] / totals.total;
      mi += joint * std::log(joint / (pr * pc));
    }
  }
  return std::max(0.0, mi);
}

}  // namespace fairlaw::stats
