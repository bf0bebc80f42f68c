#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/kernels/kernel.h"
#include "linalg/kernels/suffstats_access.h"
#include "linalg/suffstats.h"

/// \file
/// \brief The vectorized intra-block kernel.
///
/// Bit-identity with the scalar reference is by construction, not by luck.
/// The rules this file obeys (docs/architecture.md#kernel-layer):
///
///  1. An accumulator's value depends only on its own sequence of addends.
///     We vectorize *across independent accumulators* (the entries of one
///     Gram row, the lanes of an elementwise precompute) — never across the
///     additions of one accumulator's chain — so every accumulator still
///     receives exactly the scalar kernel's addends, in the scalar kernel's
///     order.
///  2. IEEE products are deterministic (and `1.0 * w == w` exactly), so the
///     addends themselves match as long as no FMA contraction sneaks in —
///     the build compiles the whole library with -ffp-contract=off.
///  3. Fresh accumulators start at +0.0 in both kernels, and results are
///     written back by assignment, so local accumulation buffers are
///     transparent.
///  4. Serial reductions (the per-block Σ chains) stay serial; SIMD does the
///     elementwise work (|a−b|, ŷ per lane) that feeds them.
///
/// `#pragma omp simd` is the portability seam: it is advisory
/// (-fopenmp-simd, no runtime), the compiler picks the widest ISA the build
/// allows, and an optional CHARLES_KERNEL_AVX2 build compiles this one
/// translation unit with -mavx2 (guarded at runtime in kernel.cc — the
/// kernel registry falls back to scalar on CPUs without the ISA).

namespace charles {
namespace kernels {

/// True when this translation unit needs AVX2 at runtime (kernel.cc reads
/// this to decide whether the simd kernel is safe to dispatch).
#if defined(__AVX2__)
extern const bool kSimdKernelNeedsAvx2 = true;
#else
extern const bool kSimdKernelNeedsAvx2 = false;
#endif

namespace {

/// Lane count of the chunked elementwise loops: big enough to fill any
/// current vector unit several times over, small enough to live on the
/// stack.
constexpr int64_t kChunk = 64;

/// Per-thread scratch for the block buffers, so steady-state accumulation
/// never allocates (blocks arrive at up to stats_block_rows rows apiece).
struct Scratch {
  std::vector<double> design;  ///< row-major count × (p+1) shifted design
  std::vector<double> dy;      ///< shifted responses, length count
  std::vector<double> tri;     ///< transposed local triangle, (p+1)²
  std::vector<double> xty;     ///< local Zᵀdy, length p+1
};

Scratch& LocalScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// One block partial, vectorized. The accumulator layout is transposed
/// relative to SufficientStats::gram_ — tri[j·d + i] (i ≤ j) holds the
/// (i, j) upper-triangle entry — so the innermost loop runs over the
/// *contiguous* i range and vectorizes cleanly; the write-back mirrors it
/// into gram_'s both triangles, which is bit-identical to the scalar
/// kernel's per-row mirrored `+=` (both mirror entries receive the same
/// addend sequence, hence hold the same value).
SufficientStats SuffStatsBlockSimd(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, const int64_t* rows, int64_t base,
    int64_t count) {
  const int64_t p = static_cast<int64_t>(columns.size());
  SufficientStats stats(p);
  if (count == 0) return stats;
  SuffStatsAccess::View view = SuffStatsAccess::Of(stats);
  const int64_t d = p + 1;

  // The shift point is the first observation, exactly as the scalar
  // kernel's first Accumulate() records it.
  const size_t first = static_cast<size_t>(rows != nullptr ? rows[0] : base);
  for (int64_t f = 0; f < p; ++f) {
    view.x_shift[f] = (*columns[static_cast<size_t>(f)])[first];
  }
  *view.y_shift = y[first];

  Scratch& scratch = LocalScratch();
  scratch.design.resize(static_cast<size_t>(count * d));
  scratch.dy.resize(static_cast<size_t>(count));
  scratch.tri.assign(static_cast<size_t>(d * d), 0.0);
  scratch.xty.assign(static_cast<size_t>(d), 0.0);
  double* design = scratch.design.data();
  double* dy = scratch.dy.data();
  double* tri = scratch.tri.data();
  double* xty = scratch.xty.data();

  // Gather the block into a row-major shifted augmented design
  // z = (1, x − x_shift): one strided pass per column keeps the source
  // reads contiguous for range blocks. The subtraction is the identical
  // expression the scalar kernel evaluates per row, so every z entry (and
  // every dy) carries the identical bits.
  for (int64_t r = 0; r < count; ++r) design[r * d] = 1.0;
  for (int64_t f = 0; f < p; ++f) {
    const double* col = columns[static_cast<size_t>(f)]->data();
    const double shift = view.x_shift[f];
    double* out = design + (f + 1);
    if (rows != nullptr) {
      for (int64_t r = 0; r < count; ++r) {
        out[r * d] = col[rows[r]] - shift;
      }
    } else {
      const double* src = col + base;
#pragma omp simd
      for (int64_t r = 0; r < count; ++r) {
        out[r * d] = src[r] - shift;
      }
    }
  }
  {
    const double* yp = y.data();
    const double y_shift = *view.y_shift;
    if (rows != nullptr) {
      for (int64_t r = 0; r < count; ++r) dy[r] = yp[rows[r]] - y_shift;
    } else {
      const double* src = yp + base;
#pragma omp simd
      for (int64_t r = 0; r < count; ++r) dy[r] = src[r] - y_shift;
    }
  }

  // Rank-1 updates, one row at a time (each accumulator's addend order is
  // the row order — the canonical fold), vectorized across the independent
  // accumulators of each triangle row.
  double yty = 0.0;
  for (int64_t r = 0; r < count; ++r) {
    const double* zr = design + r * d;
    const double dyr = dy[r];
    for (int64_t j = 0; j < d; ++j) {
      const double w = zr[j];
      double* tri_j = tri + j * d;
#pragma omp simd
      for (int64_t i = 0; i <= j; ++i) {
        tri_j[i] += zr[i] * w;
      }
    }
#pragma omp simd
    for (int64_t j = 0; j < d; ++j) {
      xty[j] += zr[j] * dyr;
    }
    yty += dyr * dyr;
  }

  // Write-back by assignment into the fresh (all +0.0) stats.
  for (int64_t j = 0; j < d; ++j) {
    for (int64_t i = 0; i <= j; ++i) {
      const double value = tri[j * d + i];
      view.gram[i * d + j] = value;
      view.gram[j * d + i] = value;
    }
    view.xty[j] = xty[j];
  }
  *view.yty = yty;
  *view.n = count;
  return stats;
}

double AbsDiffSumSimd(const double* a, const double* b, int64_t count) {
  double sum = 0.0;
  double err[kChunk];
  for (int64_t at = 0; at < count; at += kChunk) {
    const int64_t n = std::min(kChunk, count - at);
    const double* pa = a + at;
    const double* pb = b + at;
    // SIMD computes the elementwise errors; the Σ chain stays serial in
    // index order — identical addends, identical order, identical bits.
#pragma omp simd
    for (int64_t l = 0; l < n; ++l) {
      err[l] = std::abs(pa[l] - pb[l]);
    }
    for (int64_t l = 0; l < n; ++l) sum += err[l];
  }
  return sum;
}

double AbsSumSimd(const double* values, int64_t count) {
  double sum = 0.0;
  double mag[kChunk];
  for (int64_t at = 0; at < count; at += kChunk) {
    const int64_t n = std::min(kChunk, count - at);
    const double* pv = values + at;
#pragma omp simd
    for (int64_t l = 0; l < n; ++l) {
      mag[l] = std::abs(pv[l]);
    }
    for (int64_t l = 0; l < n; ++l) sum += mag[l];
  }
  return sum;
}

/// Score fold: AbsDiffSumSimd's chunked |a−b| lanes and serial Σ chain,
/// with the within-tolerance tally taken in the same serial pass (it is an
/// integer count, so the pass structure is free — serial keeps it obvious).
void ScoreDiffSumSimd(const double* a, const double* b, int64_t count,
                      double tolerance, double* abs_sum, int64_t* exact) {
  double sum = 0.0;
  int64_t within = 0;
  double err[kChunk];
  for (int64_t at = 0; at < count; at += kChunk) {
    const int64_t n = std::min(kChunk, count - at);
    const double* pa = a + at;
    const double* pb = b + at;
#pragma omp simd
    for (int64_t l = 0; l < n; ++l) {
      err[l] = std::abs(pa[l] - pb[l]);
    }
    for (int64_t l = 0; l < n; ++l) {
      sum += err[l];
      if (err[l] <= tolerance) ++within;
    }
  }
  *abs_sum = sum;
  *exact = within;
}

/// Probe score: chunked lanes with the serial Σ + tally pass at the chunk
/// tail. Each lane's ŷ chain is intercept, then += c_f·x_f in feature order
/// — exactly the scalar probe's (and LinearModel::PredictRow's)
/// left-to-right evaluation, run on many rows at once.
void ProbeScoreSumSimd(double intercept, const double* coefficients,
                       const std::vector<const std::vector<double>*>& columns,
                       const std::vector<double>& y, const int64_t* rows,
                       int64_t count, double tolerance, double* abs_sum,
                       int64_t* exact) {
  double sum = 0.0;
  int64_t within = 0;
  double y_hat[kChunk];
  double err[kChunk];
  const size_t num_features = columns.size();
  const double* yp = y.data();
  for (int64_t at = 0; at < count; at += kChunk) {
    const int64_t n = std::min(kChunk, count - at);
    const int64_t* idx = rows + at;
#pragma omp simd
    for (int64_t l = 0; l < n; ++l) y_hat[l] = intercept;
    for (size_t f = 0; f < num_features; ++f) {
      const double c = coefficients[f];
      const double* col = columns[f]->data();
#pragma omp simd
      for (int64_t l = 0; l < n; ++l) {
        y_hat[l] += c * col[idx[l]];
      }
    }
#pragma omp simd
    for (int64_t l = 0; l < n; ++l) {
      err[l] = std::abs(yp[idx[l]] - y_hat[l]);
    }
    for (int64_t l = 0; l < n; ++l) {
      sum += err[l];
      if (err[l] <= tolerance) ++within;
    }
  }
  *abs_sum = sum;
  *exact = within;
}

void GatherSimd(const double* src, const int64_t* rows, int64_t count,
                double* dst, int64_t dst_stride) {
  if (dst_stride == 1) {
#pragma omp simd
    for (int64_t i = 0; i < count; ++i) {
      dst[i] = src[rows[i]];
    }
  } else {
    for (int64_t i = 0; i < count; ++i) {
      dst[i * dst_stride] = src[rows[i]];
    }
  }
}

constexpr Kernel kSimdKernel = {
#if defined(__AVX2__)
    "simd-avx2",
#else
    "simd",
#endif
    SuffStatsBlockSimd, AbsDiffSumSimd,   AbsSumSimd,
    GatherSimd,         ScoreDiffSumSimd, ProbeScoreSumSimd,
};

}  // namespace

/// Raw table, before the runtime ISA guard — kernel.cc owns the guard.
const Kernel& SimdKernelTable() { return kSimdKernel; }

}  // namespace kernels
}  // namespace charles
