#include "linalg/suffstats.h"

#include <cmath>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/wire.h"

namespace charles {

namespace {

/// mean(|e|) = rmse·sqrt(2/π) when residuals are Gaussian; the moments
/// cannot pin the L1 error down exactly, so this is the documented estimate.
constexpr double kMaeOverRmseGaussian = 0.7978845608028654;  // sqrt(2/pi)

/// Relative pivot floor for the centered Cholesky. Normal equations square
/// the design's condition number, so this is deliberately stricter than the
/// generic CholeskySolve tolerance: a pivot this small relative to its
/// centered diagonal means the moments have lost the digits a trustworthy
/// solve needs, and the row-level QR path should decide instead.
constexpr double kPivotTolerance = 1e-9;

}  // namespace

SufficientStats::SufficientStats(int64_t num_features) : p_(num_features) {
  CHARLES_CHECK_GE(num_features, 0);
  size_t d = static_cast<size_t>(p_ + 1);
  x_shift_.assign(static_cast<size_t>(p_), 0.0);
  gram_.assign(d * d, 0.0);
  xty_.assign(d, 0.0);
}

void SufficientStats::Accumulate(const double* x, double y) {
  size_t d = static_cast<size_t>(p_ + 1);
  if (n_ == 0) {
    for (size_t f = 0; f + 1 < d; ++f) x_shift_[f] = x[f];
    y_shift_ = y;
  }
  // Upper triangle of z·zᵀ for the shifted z = (1, x − x_shift), mirrored
  // below so the derived-moment accessors and Project() never branch on
  // triangle order. The first observation contributes only to gram_[0]/n —
  // its shifted coordinates are exactly zero.
  gram_[0] += 1.0;
  double dy = y - y_shift_;
  for (size_t j = 1; j < d; ++j) {
    double v = x[j - 1] - x_shift_[j - 1];
    gram_[j] += v;
    gram_[j * d] += v;
    for (size_t i = 1; i <= j; ++i) {
      double prod = (x[i - 1] - x_shift_[i - 1]) * v;
      gram_[i * d + j] += prod;
      if (i != j) gram_[j * d + i] += prod;
    }
    xty_[j] += v * dy;
  }
  xty_[0] += dy;
  yty_ += dy * dy;
  ++n_;
}

Status SufficientStats::Merge(const SufficientStats& other) {
  if (other.p_ != p_) {
    return Status::InvalidArgument("SufficientStats::Merge: feature count mismatch (" +
                                   std::to_string(p_) + " vs " +
                                   std::to_string(other.p_) + ")");
  }
  if (other.n_ == 0) return Status::OK();
  if (n_ == 0) {
    *this = other;
    return Status::OK();
  }
  // Translate other's moments from its shift (s, t) to ours (s', t'):
  // with u' = u + δ (δ_j = s_j − s'_j) and v' = v + ε,
  //   Σu'_i u'_j = Σu_i u_j + δ_i Σu_j + δ_j Σu_i + n δ_i δ_j
  //   Σu'_j v'   = Σu_j v + ε Σu_j + δ_j Σv + n δ_j ε
  //   Σv'²       = Σv² + 2ε Σv + n ε².
  // The translation is algebraically exact; its rounding is bounded by the
  // shift distance, which for sample-point shifts is the data's own spread.
  size_t d = static_cast<size_t>(p_ + 1);
  double on = static_cast<double>(other.n_);
  double eps = other.y_shift_ - y_shift_;
  std::vector<double> delta(static_cast<size_t>(p_));
  for (size_t f = 0; f < delta.size(); ++f) {
    delta[f] = other.x_shift_[f] - x_shift_[f];
  }
  auto osum_u = [&](size_t j) { return j == 0 ? on : other.gram_[j]; };
  auto dlt = [&](size_t j) { return j == 0 ? 0.0 : delta[j - 1]; };
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      gram_[i * d + j] += other.gram_[i * d + j] + dlt(i) * osum_u(j) +
                          dlt(j) * osum_u(i) + on * dlt(i) * dlt(j);
    }
  }
  double other_sum_v = other.xty_[0];
  for (size_t j = 0; j < d; ++j) {
    xty_[j] += other.xty_[j] + eps * osum_u(j) + dlt(j) * other_sum_v +
               on * dlt(j) * eps;
  }
  yty_ += other.yty_ + 2.0 * eps * other_sum_v + on * eps * eps;
  n_ += other.n_;
  return Status::OK();
}

SufficientStats SufficientStats::Project(const std::vector<int>& subset) const {
  SufficientStats out(static_cast<int64_t>(subset.size()));
  out.n_ = n_;
  out.y_shift_ = y_shift_;
  out.yty_ = yty_;
  size_t d = static_cast<size_t>(p_ + 1);
  size_t od = subset.size() + 1;
  // Augmented index 0 (the intercept column) always survives projection.
  auto from = [&](size_t k) {
    return k == 0 ? size_t{0} : static_cast<size_t>(subset[k - 1]) + 1;
  };
  for (size_t k = 1; k < od; ++k) {
    out.x_shift_[k - 1] = x_shift_[static_cast<size_t>(subset[k - 1])];
  }
  for (size_t i = 0; i < od; ++i) {
    out.xty_[i] = xty_[from(i)];
    for (size_t j = 0; j < od; ++j) {
      out.gram_[i * od + j] = gram_[from(i) * d + from(j)];
    }
  }
  return out;
}

double SufficientStats::MeanX(int64_t f) const {
  if (n_ == 0) return 0.0;
  return x_shift_[static_cast<size_t>(f)] +
         gram_[static_cast<size_t>(f) + 1] / static_cast<double>(n_);
}

double SufficientStats::MeanY() const {
  if (n_ == 0) return 0.0;
  return y_shift_ + xty_[0] / static_cast<double>(n_);
}

double SufficientStats::Sxx(int64_t i, int64_t j) const {
  size_t d = static_cast<size_t>(p_ + 1);
  double n = static_cast<double>(n_);
  double sum_i = gram_[static_cast<size_t>(i) + 1];
  double sum_j = gram_[static_cast<size_t>(j) + 1];
  return gram_[(static_cast<size_t>(i) + 1) * d + static_cast<size_t>(j) + 1] -
         (n_ > 0 ? sum_i * sum_j / n : 0.0);
}

double SufficientStats::Sxy(int64_t i) const {
  double n = static_cast<double>(n_);
  return xty_[static_cast<size_t>(i) + 1] -
         (n_ > 0 ? gram_[static_cast<size_t>(i) + 1] * xty_[0] / n : 0.0);
}

double SufficientStats::Syy() const {
  if (n_ == 0) return 0.0;
  double syy = yty_ - xty_[0] * xty_[0] / static_cast<double>(n_);
  return syy < 0.0 ? 0.0 : syy;
}

Result<SufficientStats::Solution> SufficientStats::SolveOls(
    const std::vector<int>& subset) const {
  for (int f : subset) {
    if (f < 0 || f >= p_) {
      return Status::OutOfRange("SufficientStats::SolveOls: feature index " +
                                std::to_string(f));
    }
  }
  if (n_ == 0) return Status::InvalidArgument("SufficientStats::SolveOls: no rows");

  size_t p = subset.size();
  double n = static_cast<double>(n_);
  double mean_y = MeanY();
  double syy = Syy();

  Solution solution;
  solution.coefficients.assign(p, 0.0);

  // Constant response: mirror LinearRegression's short-circuit — the model
  // is the mean, and no coefficient may pick up noise.
  double total_var = syy / n;
  auto finish = [&](double sse) {
    if (sse < 0.0) sse = 0.0;
    solution.rmse = std::sqrt(sse / n);
    if (total_var <= 1e-300) {
      solution.r2 = solution.rmse <= 1e-9 ? 1.0 : 0.0;
    } else {
      solution.r2 = 1.0 - (sse / n) / total_var;
    }
    solution.mae_estimate = solution.rmse * kMaeOverRmseGaussian;
  };
  if (p == 0 || total_var <= 1e-300) {
    solution.intercept = mean_y;
    finish(syy);
    return solution;
  }
  if (n_ < static_cast<int64_t>(p) + 1) {
    return Status::InvalidArgument(
        "SufficientStats::SolveOls: underdetermined system (n = " +
        std::to_string(n_) + ", p = " + std::to_string(p) + ")");
  }

  // Centered normal equations Sxx β = Sxy. Centering eliminates the
  // intercept column, whose correlation with raw features is what usually
  // wrecks the conditioning of uncentered normal equations; the intercept is
  // recovered from the means afterwards.
  std::vector<double> sxx(p * p);
  std::vector<double> sxy(p);
  for (size_t i = 0; i < p; ++i) {
    sxy[i] = Sxy(subset[i]);
    for (size_t j = 0; j < p; ++j) {
      sxx[i * p + j] = Sxx(subset[i], subset[j]);
    }
  }

  // In-place Cholesky with a relative pivot floor: a pivot that collapses
  // against its own centered diagonal marks a (near-)collinear subset —
  // fail so the caller's QR path arbitrates instead of returning noise.
  std::vector<double>& l = sxx;  // lower triangle overwrites the input
  std::vector<double> diag(p);
  for (size_t i = 0; i < p; ++i) diag[i] = sxx[i * p + i];
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = l[i * p + j];
      for (size_t k = 0; k < j; ++k) sum -= l[i * p + k] * l[j * p + k];
      if (i == j) {
        if (sum <= kPivotTolerance * std::max(1e-300, diag[i])) {
          return Status::InvalidArgument(
              "SufficientStats::SolveOls: ill-conditioned normal equations");
        }
        l[i * p + i] = std::sqrt(sum);
      } else {
        l[i * p + j] = sum / l[j * p + j];
      }
    }
  }
  // Forward then back substitution.
  std::vector<double> beta = sxy;
  for (size_t i = 0; i < p; ++i) {
    for (size_t k = 0; k < i; ++k) beta[i] -= l[i * p + k] * beta[k];
    beta[i] /= l[i * p + i];
  }
  for (size_t ii = p; ii > 0; --ii) {
    size_t i = ii - 1;
    for (size_t k = i + 1; k < p; ++k) beta[i] -= l[k * p + i] * beta[k];
    beta[i] /= l[i * p + i];
  }

  solution.coefficients = beta;
  double intercept = mean_y;
  for (size_t i = 0; i < p; ++i) intercept -= beta[i] * MeanX(subset[i]);
  solution.intercept = intercept;

  // SSE = Syy − βᵀSxy (exact for the least-squares β).
  double explained = 0.0;
  for (size_t i = 0; i < p; ++i) explained += beta[i] * sxy[i];
  finish(syy - explained);
  return solution;
}

Result<SufficientStats::Solution> SufficientStats::SolveOls() const {
  std::vector<int> all(static_cast<size_t>(p_));
  for (int64_t i = 0; i < p_; ++i) all[static_cast<size_t>(i)] = static_cast<int>(i);
  return SolveOls(all);
}

int64_t SufficientStats::FirstNonFiniteColumn() const {
  // Each column's sum of squares bounds its other moments (Cauchy–Schwarz:
  // |Σab| ≤ √(Σa²·Σb²), |Σa| ≤ √(n·Σa²)), so checking the squares names the
  // overflowing column rather than a partner whose cross term it poisoned.
  const int64_t dim = p_ + 1;
  for (int64_t f = 1; f <= p_; ++f) {
    if (!std::isfinite(gram_[static_cast<size_t>(f * dim + f)])) return f - 1;
  }
  return std::isfinite(yty_) ? -1 : p_;
}

using wire::AppendRaw;
using wire::ReadRaw;

void SufficientStats::SerializeTo(std::string* out) const {
  AppendRaw(out, &p_, sizeof(p_));
  AppendRaw(out, &n_, sizeof(n_));
  AppendRaw(out, &y_shift_, sizeof(y_shift_));
  AppendRaw(out, &yty_, sizeof(yty_));
  AppendRaw(out, x_shift_.data(), x_shift_.size() * sizeof(double));
  AppendRaw(out, gram_.data(), gram_.size() * sizeof(double));
  AppendRaw(out, xty_.data(), xty_.size() * sizeof(double));
}

Result<SufficientStats> SufficientStats::Deserialize(const unsigned char** cursor,
                                                     const unsigned char* end) {
  int64_t p = 0;
  const unsigned char* at = *cursor;
  if (!ReadRaw(&at, end, &p, sizeof(p)) || p < 0 || p > (1 << 20)) {
    return Status::IOError("SufficientStats::Deserialize: bad feature count");
  }
  // Bound the allocation by the bytes actually present: a corrupt stream
  // must fail with a Status, never with a gram-buffer bad_alloc.
  size_t d = static_cast<size_t>(p) + 1;
  size_t needed = sizeof(int64_t) + 2 * sizeof(double) +
                  (static_cast<size_t>(p) + d * d + d) * sizeof(double);
  if (static_cast<size_t>(end - at) < needed) {
    return Status::IOError("SufficientStats::Deserialize: truncated input");
  }
  SufficientStats stats(p);
  bool ok = ReadRaw(&at, end, &stats.n_, sizeof(stats.n_)) &&
            ReadRaw(&at, end, &stats.y_shift_, sizeof(stats.y_shift_)) &&
            ReadRaw(&at, end, &stats.yty_, sizeof(stats.yty_)) &&
            ReadRaw(&at, end, stats.x_shift_.data(),
                    stats.x_shift_.size() * sizeof(double)) &&
            ReadRaw(&at, end, stats.gram_.data(),
                    stats.gram_.size() * sizeof(double)) &&
            ReadRaw(&at, end, stats.xty_.data(),
                    stats.xty_.size() * sizeof(double));
  if (!ok || stats.n_ < 0) {
    return Status::IOError("SufficientStats::Deserialize: truncated input");
  }
  *cursor = at;
  return stats;
}

bool SufficientStats::BitIdenticalTo(const SufficientStats& other) const {
  auto bytes_equal = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  return p_ == other.p_ && n_ == other.n_ &&
         std::memcmp(&y_shift_, &other.y_shift_, sizeof(y_shift_)) == 0 &&
         std::memcmp(&yty_, &other.yty_, sizeof(yty_)) == 0 &&
         bytes_equal(x_shift_, other.x_shift_) && bytes_equal(gram_, other.gram_) &&
         bytes_equal(xty_, other.xty_);
}

namespace {

/// The block fold: accumulates `count` rows (gathering one value per column,
/// in column order) into fresh stats. Indexed and contiguous blocks share the
/// one loop so their arithmetic can never diverge — the distributed
/// bit-identity contract depends on the range variant replaying the indexed
/// variant's operations exactly. When `rows` is null the block is the
/// contiguous range [base, base + count).
SufficientStats SuffStatsBlock(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, const int64_t* rows, int64_t base,
    int64_t count) {
  SufficientStats stats(static_cast<int64_t>(columns.size()));
  std::vector<double> features(columns.size());
  for (int64_t r = 0; r < count; ++r) {
    size_t row = static_cast<size_t>(rows != nullptr ? rows[r] : base + r);
    for (size_t f = 0; f < columns.size(); ++f) features[f] = (*columns[f])[row];
    stats.Accumulate(features.data(), y[row]);
  }
  return stats;
}

}  // namespace

// The entry points below own only the block structure — grouping rows into
// canonical blocks and folding the per-block partials in order; the
// arithmetic inside a block is SuffStatsBlock's.

SufficientStats AccumulateRows(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, const int64_t* rows, int64_t count) {
  return SuffStatsBlock(columns, y, rows, /*base=*/0, count);
}

SufficientStats AccumulateRowBlocks(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, const std::vector<int64_t>& rows,
    int64_t block_rows) {
  CHARLES_CHECK_GE(block_rows, 1);
  SufficientStats merged(static_cast<int64_t>(columns.size()));
  ForEachRowBlock(rows.data(), static_cast<int64_t>(rows.size()), block_rows,
                  [&](int64_t /*block*/, const int64_t* block_rows_ptr,
                      int64_t count) {
                    CHARLES_CHECK_OK(merged.Merge(SuffStatsBlock(
                        columns, y, block_rows_ptr, /*base=*/0, count)));
                  });
  return merged;
}

SufficientStats AccumulateRangeBlocks(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, int64_t num_rows, int64_t block_rows) {
  CHARLES_CHECK_GE(block_rows, 1);
  SufficientStats merged(static_cast<int64_t>(columns.size()));
  for (int64_t begin = 0; begin < num_rows; begin += block_rows) {
    int64_t end = begin + block_rows < num_rows ? begin + block_rows : num_rows;
    CHARLES_CHECK_OK(merged.Merge(SuffStatsBlock(
        columns, y, /*rows=*/nullptr, begin, end - begin)));
  }
  return merged;
}

}  // namespace charles
