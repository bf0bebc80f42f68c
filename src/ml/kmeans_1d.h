#ifndef CHARLES_ML_KMEANS_1D_H_
#define CHARLES_ML_KMEANS_1D_H_

#include <vector>

#include "common/result.h"

namespace charles {

/// \brief The optimal k-means clusterings of one 1-D signal, for every
/// k = 1..labels.size().
struct KMeans1DResult {
  /// labels[k - 1][i] is the cluster of value i in the best k-clustering.
  /// Clusters are numbered 0..k-1 in ascending value order.
  std::vector<std::vector<int>> labels;
  /// inertia[k - 1] is that clustering's sum of squared distances to the
  /// cluster means, measured on the values scaled by 2^-scale_exponent. The
  /// scaling maps every finite signal into [-1, 1], so the inertia is finite
  /// even when the squares of the raw values would overflow.
  std::vector<double> inertia;
  /// The power of two the values were divided by; 0 for an all-zero signal.
  int scale_exponent = 0;
};

/// \brief Exact 1-D k-means for k = 1..min(max_k, distinct values).
///
/// One dimension admits an exact answer where Lloyd's algorithm only finds a
/// local optimum: optimal clusters are contiguous runs of the sorted values,
/// so a dynamic program over split points solves every k from one table
/// (Wang & Song 2011, "Ckmeans.1d.dp"; Grønlund et al. 2017,
/// arXiv:1701.07204). The values are sorted once, and equal values merge
/// into one weighted point, so they always share a cluster. Each DP layer is
/// filled by divide and conquer over the monotone optimal split points, in
/// O(m log m) for m distinct values; cost ties go to the smallest split
/// index, so the result is a pure function of the input.
///
/// Segment costs come from a disjoint sparse table of weighted Welford
/// moments, anchored at each block's midpoint: one O(1) merge of two
/// non-negative parts per query, so a tight cluster far from the signal's
/// mean keeps its cost instead of losing it to the cancellation of global
/// prefix sums of squares. The table holds O(m log m) doubles.
///
/// Fails if `values` is empty, holds a non-finite value, or max_k < 1.
Result<KMeans1DResult> KMeans1D(const std::vector<double>& values, int max_k);

}  // namespace charles

#endif  // CHARLES_ML_KMEANS_1D_H_
