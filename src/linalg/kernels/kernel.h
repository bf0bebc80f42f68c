#ifndef CHARLES_LINALG_KERNELS_KERNEL_H_
#define CHARLES_LINALG_KERNELS_KERNEL_H_

/// \file
/// \brief Pluggable intra-block compute kernels for the canonical folds.
///
/// Every hot loop in the engine funnels through a handful of canonical block
/// folds: suffstats XᵀX/Xᵀy/yᵀy accumulation (linalg/suffstats.h), Σ|y − ŷ|
/// error partials (linalg/error_partials.h), probe evaluation on shard
/// workers, and strided column gathers. The determinism contract
/// (docs/distributed.md) fixes each fold *per block* — a block's rows are
/// accumulated in row order into a fresh partial, and partials merge in
/// ascending block order — but says nothing about how the arithmetic inside
/// one block is evaluated, as long as the block's resulting bits are fixed.
///
/// This header is the seam that exploits that freedom. A Kernel is a table
/// of block-level primitives; every accumulation entry point dispatches
/// through the process-wide active kernel, so serial, threaded, subprocess,
/// and remote execution all run the same code path. Two implementations
/// ship:
///
///  - **scalar** (scalar_kernel.cc): the reference fold — the original
///    per-row gather/accumulate loops, extracted verbatim. The definition of
///    correct bits.
///  - **simd** (simd_kernel.cc): a vectorized kernel over contiguous block
///    buffers. It is *bit-identical to scalar by construction*: it only
///    vectorizes across independent accumulators (the columns of one Gram
///    row, the lanes of an elementwise |a−b| precompute), never across the
///    additions of one accumulator's chain, so every accumulator still
///    receives exactly the scalar kernel's addend sequence. See
///    docs/architecture.md#kernel-layer for the full argument.
///
/// Because the kernels are bit-identical, the choice is invisible to
/// results: it is not part of the run fingerprint, cached fits are valid
/// across kernels, and a remote worker may resolve a different kernel than
/// its coordinator without breaking the merge. tests/kernel_parity_test.cc
/// is the differential harness that keeps the claim true.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace charles {

class SufficientStats;

namespace kernels {

/// CharlesOptions::kernel_backend, parsed. kAuto resolves to the vectorized
/// kernel when the build's ISA is usable on the running CPU, else scalar.
enum class KernelBackend { kAuto, kScalar, kSimd };

/// Parses "auto" | "scalar" | "simd"; anything else is InvalidArgument.
Result<KernelBackend> ParseKernelBackend(const std::string& name);

/// \brief One kernel implementation: the block-level primitives behind the
/// canonical folds. All functions are pure (no shared state) and safe to
/// call concurrently.
///
/// Row addressing is shared across ops: when `rows` is non-null it points at
/// `count` ascending global row indices (one canonical block's run); when it
/// is null the block is the contiguous range [base, base + count).
struct Kernel {
  /// Human-readable name, reported in SummaryList::kernel_used.
  const char* name;

  /// One block partial: accumulates `count` rows (gathering one value per
  /// column, in column order) into *fresh* SufficientStats — the shared
  /// primitive of engine-side and shard-side moment accumulation.
  SufficientStats (*suffstats_block)(
      const std::vector<const std::vector<double>*>& columns,
      const std::vector<double>& y, const int64_t* rows, int64_t base,
      int64_t count);

  /// One block partial of Σ|a[i] − b[i]| over positional arrays, summed in
  /// index order from zero.
  double (*abs_diff_sum)(const double* a, const double* b, int64_t count);

  /// One block partial of Σ|values[i]|, summed in index order from zero.
  double (*abs_sum)(const double* values, int64_t count);

  /// Strided gather: dst[i·dst_stride] = src[rows[i]] for i in [0, count).
  /// dst_stride >= 1 (1 = contiguous, cols() = one matrix column).
  void (*gather)(const double* src, const int64_t* rows, int64_t count,
                 double* dst, int64_t dst_stride);

  /// \name Score-fold entries (the kScorePartials / accuracy currency)
  ///
  /// Each returns two results per block: the Σ|error| chain — **bit-identical
  /// to its error-fold counterpart** (same addends, same order) — and the
  /// count of |error| ≤ tolerance over the same errors. The count is an
  /// integer tally, exact under any evaluation order, so kernels are free to
  /// tally it however they like; only the sum chain is order-constrained.
  /// @{

  /// One block partial of (Σ|a[i] − b[i]|, #{i : |a[i] − b[i]| ≤ tolerance})
  /// over positional arrays; the sum matches abs_diff_sum exactly.
  void (*score_diff_sum)(const double* a, const double* b, int64_t count,
                         double tolerance, double* abs_sum, int64_t* exact);

  /// One block partial of (Σ|y[row] − ŷ(row)|, within-tolerance count) for a
  /// probe model, where ŷ = intercept + Σ_f coefficients[f]·columns[f][row]
  /// accumulated left-to-right — exactly LinearModel::PredictRow's
  /// evaluation order, which is what lets a kScorePartials shard round
  /// double as the SnapModel error baseline (ScorePartials::error()).
  void (*probe_score_sum)(double intercept, const double* coefficients,
                          const std::vector<const std::vector<double>*>& columns,
                          const std::vector<double>& y, const int64_t* rows,
                          int64_t count, double tolerance, double* abs_sum,
                          int64_t* exact);
  /// @}
};

/// The reference kernel (always available).
const Kernel& ScalarKernel();

/// The vectorized kernel. When the translation unit was compiled for an ISA
/// the running CPU lacks (CHARLES_KERNEL_AVX2 builds on pre-AVX2 hardware),
/// this returns the scalar kernel instead — a safe, bit-identical fallback,
/// never SIGILL.
const Kernel& SimdKernel();

/// Maps a parsed backend to its kernel (kAuto/kSimd → SimdKernel()).
const Kernel& ResolveKernel(KernelBackend backend);

/// \name Process-wide active kernel
///
/// RunPipeline::Setup installs the run's kernel here; the accumulation entry
/// points in suffstats.h / error_partials.h and the shard task kernel
/// dispatch through it. A plain atomic pointer — concurrent runs with
/// different settings are harmless precisely because the kernels are
/// bit-identical; diagnostics report whichever kernel each run resolved.
/// Defaults to ResolveKernel(kAuto) before any run.
/// @{
const Kernel& ActiveKernel();
const Kernel& SetActiveKernel(KernelBackend backend);
/// @}

/// Neumaier-compensated Σvalues[i]. **Diagnostics only**: compensation
/// changes the computed bits, so it must never back a canonical fold — the
/// parity harness and benches use it as a high-accuracy oracle for how much
/// headroom the plain folds leave on adversarial magnitudes.
double NeumaierSum(const double* values, int64_t count);

}  // namespace kernels
}  // namespace charles

#endif  // CHARLES_LINALG_KERNELS_KERNEL_H_
