/// \file
/// Exact 1-D k-means (ml/kmeans_1d.h): the DP's inertia against brute force
/// over every assignment and every contiguous split, against a local copy of
/// Lloyd with k-means++ restarts, and on signals whose raw squares overflow.

#include "ml/kmeans_1d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace charles {
namespace {

/// n values per centre, tightly grouped around the given centres.
std::vector<double> MakeBlobs(const std::vector<double>& centres, int per_centre,
                              double spread, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (double centre : centres) {
    for (int i = 0; i < per_centre; ++i) values.push_back(centre + rng.Normal(0, spread));
  }
  return values;
}

/// Two-pass inertia of a labeling, on the values scaled by 2^-exponent: each
/// cluster's mean first, then the squared distances to it.
double TwoPassInertia(const std::vector<double>& values, const std::vector<int>& labels,
                      int exponent) {
  std::map<int, std::pair<double, double>> sums;  // label -> (sum, count)
  for (size_t i = 0; i < values.size(); ++i) {
    auto& [sum, count] = sums[labels[i]];
    sum += std::ldexp(values[i], -exponent);
    count += 1.0;
  }
  double inertia = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const auto& [sum, count] = sums[labels[i]];
    const double d = std::ldexp(values[i], -exponent) - sum / count;
    inertia += d * d;
  }
  return inertia;
}

/// Renumbers labels in first-appearance order.
std::vector<int> Canonical(const std::vector<int>& labels) {
  std::map<int, int> remap;
  std::vector<int> out;
  for (int label : labels) {
    out.push_back(remap.emplace(label, static_cast<int>(remap.size())).first->second);
  }
  return out;
}

int DistinctCount(const std::vector<double>& values) {
  return static_cast<int>(std::set<double>(values.begin(), values.end()).size());
}

void ExpectRelativelyEqual(double actual, double expected, const std::string& what) {
  EXPECT_TRUE(std::isfinite(actual)) << what;
  EXPECT_LE(std::abs(actual - expected), 1e-9 * expected) << what << ": " << actual
                                                           << " vs " << expected;
}

/// The best inertia over every assignment of the values to labels [0, k).
double BruteForceAllAssignments(const std::vector<double>& values, int k, int exponent) {
  const size_t n = values.size();
  std::vector<int> labels(n, 0);
  double best = std::numeric_limits<double>::infinity();
  while (true) {
    best = std::min(best, TwoPassInertia(values, labels, exponent));
    size_t pos = 0;
    while (pos < n && ++labels[pos] == k) labels[pos++] = 0;
    if (pos == n) return best;
  }
}

/// Every partition of the sorted distinct values into contiguous runs,
/// grouped by the number of runs: the best inertia, the runner-up, and the
/// best labeling of the input values.
struct ContiguousOptimum {
  double best = std::numeric_limits<double>::infinity();
  double runner_up = std::numeric_limits<double>::infinity();
  std::vector<int> labels;
};

std::map<int, ContiguousOptimum> BruteForceContiguous(const std::vector<double>& values,
                                                      int exponent) {
  std::vector<double> distinct(values.begin(), values.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  const size_t gaps = distinct.size() - 1;
  std::map<int, ContiguousOptimum> optima;
  for (uint64_t cuts = 0; cuts < (uint64_t{1} << gaps); ++cuts) {
    std::vector<int> run_of(distinct.size(), 0);
    for (size_t g = 0; g < gaps; ++g) {
      run_of[g + 1] = run_of[g] + static_cast<int>((cuts >> g) & 1);
    }
    std::vector<int> labels;
    for (double v : values) {
      const size_t index = static_cast<size_t>(
          std::lower_bound(distinct.begin(), distinct.end(), v) - distinct.begin());
      labels.push_back(run_of[index]);
    }
    const double inertia = TwoPassInertia(values, labels, exponent);
    ContiguousOptimum& optimum = optima[run_of.back() + 1];
    if (inertia < optimum.best) {
      optimum.runner_up = optimum.best;
      optimum.best = inertia;
      optimum.labels = labels;
    } else {
      optimum.runner_up = std::min(optimum.runner_up, inertia);
    }
  }
  return optima;
}

/// Lloyd with k-means++ seeding, 4 restarts and empty-cluster repair: a
/// local copy of the clustering phase 1 used before the exact DP.
std::vector<int> LloydPlusPlus(const std::vector<double>& values, int k, uint64_t seed) {
  Rng rng(seed);
  auto random_value = [&] {
    return values[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1))];
  };
  std::vector<int> best_labels;
  double best_inertia = std::numeric_limits<double>::max();
  for (int restart = 0; restart < 4; ++restart) {
    std::vector<double> centroids = {random_value()};
    std::vector<double> min_dist(values.size(), std::numeric_limits<double>::max());
    while (static_cast<int>(centroids.size()) < k) {
      double total = 0.0;
      for (size_t i = 0; i < values.size(); ++i) {
        const double d = values[i] - centroids.back();
        min_dist[i] = std::min(min_dist[i], d * d);
        total += min_dist[i];
      }
      centroids.push_back(total <= 1e-300 ? random_value()
                                          : values[rng.WeightedIndex(min_dist)]);
    }
    std::vector<int> labels(values.size(), 0);
    for (int iteration = 0; iteration < 100; ++iteration) {
      std::vector<double> sums(centroids.size(), 0.0);
      std::vector<int> counts(centroids.size(), 0);
      for (size_t i = 0; i < values.size(); ++i) {
        double best = std::numeric_limits<double>::max();
        for (size_t c = 0; c < centroids.size(); ++c) {
          const double d = values[i] - centroids[c];
          if (d * d < best) {
            best = d * d;
            labels[i] = static_cast<int>(c);
          }
        }
        sums[static_cast<size_t>(labels[i])] += values[i];
        ++counts[static_cast<size_t>(labels[i])];
      }
      double movement = 0.0;
      for (size_t c = 0; c < centroids.size(); ++c) {
        const double next = counts[c] == 0 ? random_value() : sums[c] / counts[c];
        movement += (next - centroids[c]) * (next - centroids[c]);
        centroids[c] = next;
      }
      if (movement <= 1e-8) break;
    }
    double inertia = 0.0;
    for (size_t i = 0; i < values.size(); ++i) {
      const double d = values[i] - centroids[static_cast<size_t>(labels[i])];
      inertia += d * d;
    }
    if (inertia < best_inertia) {
      best_inertia = inertia;
      best_labels = labels;
    }
  }
  return best_labels;
}

/// Seeded 1-D signals with structure, ties and constant runs: a few Gaussian
/// blobs, some values rounded so they tie, and one value repeated.
std::vector<double> MakeSignal(Rng& rng, int64_t n) {
  const int blobs = static_cast<int>(rng.UniformInt(1, 5));
  std::vector<double> centres;
  for (int b = 0; b < blobs; ++b) centres.push_back(rng.Uniform(-100.0, 100.0));
  std::vector<double> values;
  for (int64_t i = 0; i < n; ++i) {
    double v = rng.Normal(rng.Choice(centres), rng.Uniform(0.1, 10.0));
    if (rng.Bernoulli(0.3)) v = std::round(v);
    values.push_back(v);
  }
  const int64_t run = rng.UniformInt(0, n / 3);
  const double repeated = values[0];
  for (int64_t i = 0; i < run; ++i) values[static_cast<size_t>(n - 1 - i)] = repeated;
  return values;
}

TEST(KMeansTest, SeparatesWellSpacedBlobs) {
  std::vector<double> values = MakeBlobs({0.0, 100.0, 200.0}, 20, 1.0, 1);
  KMeans1DResult result = KMeans1D(values, 3).ValueOrDie();
  ASSERT_EQ(result.labels.size(), 3u);
  // Each blob must map to exactly one cluster.
  for (int blob = 0; blob < 3; ++blob) {
    std::set<int> labels;
    for (int i = 0; i < 20; ++i) labels.insert(result.labels[2][blob * 20 + i]);
    EXPECT_EQ(labels.size(), 1u) << "blob " << blob << " split across clusters";
  }
  // Within ~3 sigma per point, in the values' own units.
  EXPECT_LT(std::ldexp(result.inertia[2], 2 * result.scale_exponent), 3 * 20 * 9.0);
}

TEST(KMeansTest, KEqualsOneGivesSingleCluster) {
  std::vector<double> values = MakeBlobs({0.0, 50.0}, 10, 1.0, 2);
  KMeans1DResult result = KMeans1D(values, 1).ValueOrDie();
  ASSERT_EQ(result.labels.size(), 1u);
  for (int label : result.labels[0]) EXPECT_EQ(label, 0);
}

TEST(KMeansTest, KEqualsNPutsEachPointAlone) {
  KMeans1DResult result = KMeans1D({0, 10, 20}, 3).ValueOrDie();
  ASSERT_EQ(result.labels.size(), 3u);
  EXPECT_EQ(result.labels[2], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(result.inertia[2], 0.0);
}

TEST(KMeansTest, InputValidation) {
  EXPECT_TRUE(KMeans1D({1, 2}, 0).status().IsInvalidArgument());
  EXPECT_TRUE(KMeans1D({}, 1).status().IsInvalidArgument());
  EXPECT_TRUE(KMeans1D({1, std::nan(""), 2}, 2).status().IsInvalidArgument());
  EXPECT_TRUE(KMeans1D({1, -std::numeric_limits<double>::infinity()}, 2)
                  .status()
                  .IsInvalidArgument());
}

TEST(KMeansTest, IdenticalPointsDoNotCrash) {
  KMeans1DResult result = KMeans1D(std::vector<double>(10, 5.0), 3).ValueOrDie();
  ASSERT_EQ(result.labels.size(), 1u);
  EXPECT_EQ(result.inertia[0], 0.0);
}

TEST(KMeansTest, KAboveDistinctValuesCollapsesToTheirCount) {
  KMeans1DResult result = KMeans1D({3, 3, 1, 1, 2, 3}, 6).ValueOrDie();
  ASSERT_EQ(result.labels.size(), 3u);
  EXPECT_EQ(result.labels[2], (std::vector<int>{2, 2, 0, 0, 1, 2}));
  EXPECT_EQ(result.inertia[2], 0.0);

  KMeans1DResult constant = KMeans1D(std::vector<double>(7, -2.5), 6).ValueOrDie();
  ASSERT_EQ(constant.labels.size(), 1u);
  EXPECT_EQ(constant.labels[0], std::vector<int>(7, 0));
}

TEST(KMeansTest, MatchesBruteForceOverEveryAssignment) {
  Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<double> values = MakeSignal(rng, rng.UniformInt(1, 8));
    SCOPED_TRACE("trial " + std::to_string(trial));
    KMeans1DResult result = KMeans1D(values, 4).ValueOrDie();
    ASSERT_EQ(static_cast<int>(result.labels.size()), std::min(4, DistinctCount(values)));
    for (size_t k = 1; k <= result.labels.size(); ++k) {
      ExpectRelativelyEqual(result.inertia[k - 1],
                            BruteForceAllAssignments(values, static_cast<int>(k),
                                                     result.scale_exponent),
                            "k=" + std::to_string(k));
    }
  }
}

TEST(KMeansTest, MatchesBruteForceOverEveryContiguousSplit) {
  Rng rng(202);
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<double> values = MakeSignal(rng, rng.UniformInt(1, 12));
    SCOPED_TRACE("trial " + std::to_string(trial));
    KMeans1DResult result = KMeans1D(values, 12).ValueOrDie();
    std::map<int, ContiguousOptimum> optima =
        BruteForceContiguous(values, result.scale_exponent);
    ASSERT_EQ(result.labels.size(), optima.size());
    for (const auto& [k, optimum] : optima) {
      const std::vector<int>& labels = result.labels[static_cast<size_t>(k - 1)];
      ExpectRelativelyEqual(result.inertia[static_cast<size_t>(k - 1)], optimum.best,
                            "k=" + std::to_string(k));
      ExpectRelativelyEqual(TwoPassInertia(values, labels, result.scale_exponent),
                            optimum.best, "two-pass, k=" + std::to_string(k));
      if (optimum.runner_up > optimum.best * (1.0 + 1e-6)) {
        EXPECT_EQ(Canonical(labels), Canonical(optimum.labels)) << "k=" << k;
      }
    }
  }
}

TEST(KMeansTest, NeverWorseThanLloydWithRestarts) {
  Rng rng(303);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> values = MakeSignal(rng, rng.UniformInt(20, 300));
    SCOPED_TRACE("trial " + std::to_string(trial));
    KMeans1DResult result = KMeans1D(values, 6).ValueOrDie();
    for (size_t k = 1; k <= result.labels.size(); ++k) {
      const double lloyd = TwoPassInertia(
          values, LloydPlusPlus(values, static_cast<int>(k), 42 + trial),
          result.scale_exponent);
      EXPECT_LE(result.inertia[k - 1], lloyd * (1.0 + 1e-12)) << "k=" << k;
    }
  }
}

TEST(KMeansTest, EqualValuesShareALabel) {
  Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> values = MakeSignal(rng, rng.UniformInt(2, 200));
    for (double& v : values) v = std::round(v / 5.0) * 5.0;  // many ties
    KMeans1DResult result = KMeans1D(values, 6).ValueOrDie();
    for (const std::vector<int>& labels : result.labels) {
      std::map<double, int> label_of;
      for (size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(label_of.emplace(values[i], labels[i]).first->second, labels[i])
            << "value " << values[i] << " split, trial " << trial;
      }
    }
  }
}

TEST(KMeansTest, HostileMagnitudesKeepAFiniteExactInertia) {
  // ±1e300 squares overflow, 1e-300 underflows once scaled, and six values
  // 1e-10 apart (relative) near 5e299 form a cluster whose cost global
  // prefix sums of squares would lose to cancellation.
  std::vector<double> values = {-1e300, 1e300, 1e-300, -1e-300, 0.0};
  for (int i = 0; i < 6; ++i) values.push_back(5e299 * (1.0 + i * 1e-10));
  KMeans1DResult result = KMeans1D(values, 8).ValueOrDie();
  ASSERT_EQ(result.labels.size(), 8u);
  std::map<int, ContiguousOptimum> optima =
      BruteForceContiguous(values, result.scale_exponent);
  for (size_t k = 1; k <= result.labels.size(); ++k) {
    const double expected = optima[static_cast<int>(k)].best;
    ExpectRelativelyEqual(result.inertia[k - 1], expected, "k=" + std::to_string(k));
    const double two_pass =
        TwoPassInertia(values, result.labels[k - 1], result.scale_exponent);
    ExpectRelativelyEqual(two_pass, expected, "two-pass, k=" + std::to_string(k));
  }
  // At k = 4 only the tight cluster has a cost, and it is far from zero.
  EXPECT_GT(result.inertia[3], 0.0);
  EXPECT_EQ(result.labels[3][5], result.labels[3][10]);
  EXPECT_NE(result.labels[3][0], result.labels[3][1]);
}

}  // namespace
}  // namespace charles
