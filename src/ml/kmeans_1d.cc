#include "ml/kmeans_1d.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/string_util.h"

namespace charles {

namespace {

/// \brief Within-cluster sum of squares of any contiguous run of the sorted,
/// weighted points, in O(1) per query.
///
/// A disjoint sparse table: at level l the points split into blocks of
/// 2^(l+1) with midpoint `mid`, and entry t holds the Welford moments
/// (weighted mean and M2) of [t, mid) for t left of the midpoint and of
/// [mid, t] otherwise, both as offsets from the value at `mid`. A run [j, i]
/// with j < i straddles exactly one midpoint — the one at the level of the
/// highest bit where j and i differ — so its cost is one merge of two
/// stored parts. The merge adds three non-negative terms, and a run that
/// holds a tight cluster also holds its anchor, so the offsets inside it are
/// exact and nothing cancels.
class SegmentCosts {
 public:
  SegmentCosts(const std::vector<double>& points, const std::vector<double>& weights)
      : m_(points.size()), cum_weight_(m_ + 1, 0.0) {
    for (size_t t = 0; t < m_; ++t) cum_weight_[t + 1] = cum_weight_[t] + weights[t];
    size_t levels = 0;
    while ((size_t{1} << levels) < m_) ++levels;
    mean_.resize(levels * m_);
    m2_.resize(levels * m_);
    for (size_t level = 0; level < levels; ++level) {
      const size_t half = size_t{1} << level;
      double* mean = &mean_[level * m_];
      double* m2 = &m2_[level * m_];
      for (size_t mid = half; mid < m_; mid += 2 * half) {
        // Weighted Welford over [first, last] in the given direction.
        auto sweep = [&](size_t first, size_t last, bool forward) {
          double w = 0.0, mu = 0.0, s = 0.0;
          for (size_t t = first;; t = forward ? t + 1 : t - 1) {
            const double u = points[t] - points[mid];
            w += weights[t];
            const double delta = u - mu;
            mu += delta * (weights[t] / w);
            s += weights[t] * delta * (u - mu);
            mean[t] = mu;
            m2[t] = s;
            if (t == last) break;
          }
        };
        sweep(mid - 1, mid - half, /*forward=*/false);
        sweep(mid, std::min(mid + half, m_) - 1, /*forward=*/true);
      }
    }
  }

  /// Sum of squared distances of points j..i (j <= i) to their mean.
  double Cost(size_t j, size_t i) const {
    if (j == i) return 0.0;
    const int level = 63 - __builtin_clzll(static_cast<unsigned long long>(j ^ i));
    const size_t mid = (i >> level) << level;
    const size_t row = static_cast<size_t>(level) * m_;
    const double left = cum_weight_[mid] - cum_weight_[j];
    const double right = cum_weight_[i + 1] - cum_weight_[mid];
    const double d = mean_[row + i] - mean_[row + j];
    return m2_[row + j] + m2_[row + i] + d * d * (left * right / (left + right));
  }

 private:
  size_t m_;
  /// cum_weight_[t] = total weight of points [0, t); exact integer sums.
  std::vector<double> cum_weight_;
  /// Level-major: entry (level, t) at level * m_ + t.
  std::vector<double> mean_;
  std::vector<double> m2_;
};

/// One layer of the DP: best[i] = min over j of prev[j - 1] + Cost(j, i), the
/// cost of the best clustering of points 0..i whose last cluster starts at
/// j, for i in [ilo, ihi] and j in [jlo, min(i, jhi)], with jlo >= 1. The
/// smallest optimal j is monotone in i, so the midpoint's split bounds both
/// halves.
struct Layer {
  const SegmentCosts& costs;
  const std::vector<double>& prev;
  std::vector<double>& best;
  int32_t* start;

  void Fill(size_t ilo, size_t ihi, size_t jlo, size_t jhi) {
    if (ilo > ihi) return;
    const size_t i = ilo + (ihi - ilo) / 2;
    double best_cost = std::numeric_limits<double>::infinity();
    size_t best_j = jlo;
    for (size_t j = jlo, end = std::min(i, jhi); j <= end; ++j) {
      const double cost = prev[j - 1] + costs.Cost(j, i);
      if (cost < best_cost) {
        best_cost = cost;
        best_j = j;
      }
    }
    best[i] = best_cost;
    start[i] = static_cast<int32_t>(best_j);
    Fill(ilo, i - 1, jlo, best_j);
    Fill(i + 1, ihi, best_j, jhi);
  }
};

}  // namespace

Result<KMeans1DResult> KMeans1D(const std::vector<double>& values, int max_k) {
  const size_t n = values.size();
  if (n == 0) return Status::InvalidArgument("KMeans1D: no values");
  if (max_k < 1) {
    return Status::InvalidArgument("KMeans1D: max_k=" + std::to_string(max_k) + " < 1");
  }
  if (n > static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Status::InvalidArgument("KMeans1D: more than 2^31 - 1 values");
  }
  double max_abs = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument("KMeans1D: value " + std::to_string(i) + " is " +
                                     FormatDouble(values[i]));
    }
    max_abs = std::max(max_abs, std::abs(values[i]));
  }
  KMeans1DResult result;
  if (max_abs > 0.0) std::frexp(max_abs, &result.scale_exponent);

  // Sort once; (value, index) pairs make the order stable. Equal values
  // merge into one weighted point, scaled by a power of two (exact for every
  // value that stays normal).
  std::vector<std::pair<double, size_t>> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = {values[i], i};
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> points;
  std::vector<double> weights;
  std::vector<int32_t> point_of(n);
  for (size_t r = 0; r < n; ++r) {
    if (r == 0 || sorted[r].first != sorted[r - 1].first) {
      points.push_back(std::ldexp(sorted[r].first, -result.scale_exponent));
      weights.push_back(0.0);
    }
    weights.back() += 1.0;
    point_of[sorted[r].second] = static_cast<int32_t>(points.size() - 1);
  }

  // start[(k - 1) * m + i]: first point of the last cluster in the best
  // k-clustering of points 0..i. Layer k = 1 is one cluster starting at 0.
  const size_t m = points.size();
  const size_t k_max = std::min(static_cast<size_t>(max_k), m);
  const SegmentCosts costs(points, weights);
  std::vector<int32_t> start(k_max * m, 0);
  std::vector<double> prev(m);
  std::vector<double> best(m);
  for (size_t i = 0; i < m; ++i) prev[i] = costs.Cost(0, i);
  result.inertia.push_back(prev.back());
  for (size_t k = 2; k <= k_max; ++k) {
    Layer layer{costs, prev, best, &start[(k - 1) * m]};
    // The last layer only needs the full run.
    layer.Fill(k == k_max ? m - 1 : k - 1, m - 1, k - 1, m - 1);
    result.inertia.push_back(best.back());
    std::swap(prev, best);
  }

  // Backtrack each k from the full run; clusters are numbered by value.
  std::vector<int> cluster(m);
  for (size_t k = 1; k <= k_max; ++k) {
    size_t end = m;
    for (size_t c = k; c >= 1; --c) {
      const size_t first = static_cast<size_t>(start[(c - 1) * m + end - 1]);
      for (size_t t = first; t < end; ++t) cluster[t] = static_cast<int>(c - 1);
      end = first;
    }
    std::vector<int> labels(n);
    for (size_t r = 0; r < n; ++r) labels[r] = cluster[static_cast<size_t>(point_of[r])];
    result.labels.push_back(std::move(labels));
  }
  return result;
}

}  // namespace charles
