/// \file
/// Experiment L1 (ISSUE 3 / ROADMAP "fast as the hardware allows"): leaf-fit
/// cost, old QR-per-(leaf, T) path versus the sufficient-statistics path,
/// over a rows × features × transforms grid.
///
/// The phase-3 sweep fits every (partition, T) pair. The QR path pays
/// O(m·p²) per fit — rows times features squared, once per transformation
/// subset. The sufficient-statistics path scans the leaf's rows once
/// (accumulating the full shortlist's moments) and then answers every
/// T-subset with a p×p solve, so its cost is one scan plus
/// transforms × O(p³). The flagship cell (100k rows × 8 features × 16
/// transforms) must show ≥ 3× — in practice the gap is far larger and grows
/// with rows × transforms.
///
/// A third column measures Merge: the same moments accumulated in 8 chunks
/// and rolled up (the child-partition → parent-fit path, exercised without
/// rescanning rows).
///
/// A fourth pair of columns times the intra-block kernels: the canonical
/// block fold run with the scalar reference kernel versus the vectorized
/// one. The two must produce bit-identical moments — the kernel contract —
/// so the comparison is pure throughput, and the JSON records
/// `kernel_bit_identical` alongside the speedup.
///
/// Results are recorded in BENCH_leaffit.json (working directory).
/// `--smoke` runs one reduced cell and exits non-zero if the speedup drops
/// below 1.5× or the kernels' moments diverge by a single bit — the CI
/// tripwire for the leaf-fit path and the kernel contract.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "linalg/kernels/kernel.h"
#include "linalg/suffstats.h"
#include "ml/linear_regression.h"

namespace charles {
namespace bench {
namespace {

struct LeafData {
  Matrix x;  ///< rows × features, the leaf's full transformation shortlist
  std::vector<double> y;
  std::vector<std::string> names;
};

/// Employee-bonus-shaped synthetic leaf: large feature means, modest spread,
/// near-linear response with mild noise — the regime phase 3 actually fits.
LeafData MakeLeaf(int64_t rows, int64_t features, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  LeafData leaf;
  leaf.x = Matrix(rows, features);
  leaf.y.resize(static_cast<size_t>(rows));
  for (int64_t c = 0; c < features; ++c) leaf.names.push_back("a" + std::to_string(c));
  for (int64_t r = 0; r < rows; ++r) {
    double target = 1000.0;
    for (int64_t c = 0; c < features; ++c) {
      double v = 4000.0 * static_cast<double>(c + 1) + 500.0 * unit(rng);
      leaf.x.At(r, c) = v;
      target += (0.05 + 0.01 * static_cast<double>(c)) * v;
    }
    leaf.y[static_cast<size_t>(r)] = target + 0.5 * unit(rng);
  }
  return leaf;
}

/// The first `count` transformation subsets (size 1 and 2) over `features`
/// columns, mirroring the engine's T-subset enumeration shape.
std::vector<std::vector<int>> MakeSubsets(int64_t features, int count) {
  std::vector<std::vector<int>> subsets;
  for (int a = 0; a < features && static_cast<int>(subsets.size()) < count; ++a) {
    subsets.push_back({a});
  }
  for (int a = 0; a < features && static_cast<int>(subsets.size()) < count; ++a) {
    for (int b = a + 1; b < features && static_cast<int>(subsets.size()) < count; ++b) {
      subsets.push_back({a, b});
    }
  }
  return subsets;
}

double Seconds(const std::chrono::steady_clock::time_point& since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

std::vector<std::string> SubsetNames(const LeafData& leaf,
                                     const std::vector<int>& subset) {
  std::vector<std::string> names;
  for (int f : subset) names.push_back(leaf.names[static_cast<size_t>(f)]);
  return names;
}

/// Old path: per T, materialize the subset design and run Householder QR —
/// what FitLeaf did for every (leaf, T) before the sufficient-stats rework.
double RunQrPath(const LeafData& leaf, const std::vector<std::vector<int>>& subsets,
                 std::vector<LinearModel>* models) {
  auto start = std::chrono::steady_clock::now();
  for (const std::vector<int>& subset : subsets) {
    Matrix sub(leaf.x.rows(), static_cast<int64_t>(subset.size()));
    for (size_t c = 0; c < subset.size(); ++c) {
      for (int64_t r = 0; r < leaf.x.rows(); ++r) {
        sub.At(r, static_cast<int64_t>(c)) = leaf.x.At(r, subset[c]);
      }
    }
    models->push_back(
        LinearRegression::Fit(sub, leaf.y, SubsetNames(leaf, subset)).ValueOrDie());
  }
  return Seconds(start);
}

/// New path: one scan accumulates the full shortlist's moments; every T is a
/// sub-solve.
double RunStatsPath(const LeafData& leaf, const std::vector<std::vector<int>>& subsets,
                    std::vector<LinearModel>* models) {
  auto start = std::chrono::steady_clock::now();
  SufficientStats stats(leaf.x.cols());
  for (int64_t r = 0; r < leaf.x.rows(); ++r) {
    stats.Accumulate(leaf.x.RowPtr(r), leaf.y[static_cast<size_t>(r)]);
  }
  for (const std::vector<int>& subset : subsets) {
    models->push_back(
        LinearRegression::FitFromStats(stats, subset, SubsetNames(leaf, subset))
            .ValueOrDie());
  }
  return Seconds(start);
}

/// Merge path: the same moments accumulated as 8 child chunks and rolled up
/// — the parent/partition-level fit without rescanning rows.
double RunMergePath(const LeafData& leaf, const std::vector<std::vector<int>>& subsets,
                    std::vector<LinearModel>* models) {
  auto start = std::chrono::steady_clock::now();
  const int kChunks = 8;
  SufficientStats merged(leaf.x.cols());
  int64_t rows = leaf.x.rows();
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    int64_t begin = rows * chunk / kChunks;
    int64_t end = rows * (chunk + 1) / kChunks;
    SufficientStats partial(leaf.x.cols());
    for (int64_t r = begin; r < end; ++r) {
      partial.Accumulate(leaf.x.RowPtr(r), leaf.y[static_cast<size_t>(r)]);
    }
    CHARLES_CHECK_OK(merged.Merge(partial));
  }
  for (const std::vector<int>& subset : subsets) {
    models->push_back(
        LinearRegression::FitFromStats(merged, subset, SubsetNames(leaf, subset))
            .ValueOrDie());
  }
  return Seconds(start);
}

/// Max |coefficient difference| between the two paths' models — printed so a
/// speedup can never silently come from solving a different problem.
double MaxModelDelta(const std::vector<LinearModel>& a,
                     const std::vector<LinearModel>& b) {
  double max_delta = 0.0;
  for (size_t m = 0; m < a.size(); ++m) {
    max_delta = std::max(max_delta, std::abs(a[m].intercept - b[m].intercept) /
                                        std::max(1.0, std::abs(b[m].intercept)));
    for (size_t c = 0; c < a[m].coefficients.size(); ++c) {
      max_delta = std::max(max_delta,
                           std::abs(a[m].coefficients[c] - b[m].coefficients[c]));
    }
  }
  return max_delta;
}

struct GridRow {
  int64_t rows = 0;
  int64_t features = 0;
  int transforms = 0;
  double qr_s = 0.0;
  double stats_s = 0.0;
  double merge_s = 0.0;
  double speedup = 0.0;
  double max_delta = 0.0;
  double kernel_scalar_s = 0.0;
  double kernel_simd_s = 0.0;
  double kernel_speedup = 0.0;
  bool kernel_bit_identical = false;
};

/// Block size for the kernel comparison — the engine's default canonical
/// block (CharlesOptions::stats_block_rows), so the bench times the fold the
/// pipeline actually runs.
constexpr int64_t kKernelBlockRows = 4096;

/// Best-of-`reps` wall time for the canonical block fold under `kernel`.
/// The resulting stats from the final rep are left in `*out` for the
/// bit-identity check.
double TimeKernelFold(const kernels::Kernel& kernel,
                      const std::vector<const std::vector<double>*>& columns,
                      const std::vector<double>& y, int64_t rows, int reps,
                      SufficientStats* out) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    SufficientStats stats =
        AccumulateRangeBlocks(kernel, columns, y, rows, kKernelBlockRows);
    double elapsed = Seconds(start);
    benchmark::DoNotOptimize(stats);
    if (rep == 0 || elapsed < best) best = elapsed;
    *out = std::move(stats);
  }
  return best;
}

/// Scalar-vs-vectorized kernel throughput on the same column data the stats
/// path scans, plus the contract check: the moments must match bitwise.
void RunKernelPaths(const LeafData& leaf, GridRow* row) {
  int64_t rows = leaf.x.rows();
  int64_t features = leaf.x.cols();
  std::vector<std::vector<double>> storage(static_cast<size_t>(features));
  std::vector<const std::vector<double>*> columns;
  for (int64_t c = 0; c < features; ++c) {
    std::vector<double>& col = storage[static_cast<size_t>(c)];
    col.resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) col[static_cast<size_t>(r)] = leaf.x.At(r, c);
    columns.push_back(&col);
  }
  const int reps = rows >= 100000 ? 3 : 5;
  SufficientStats scalar_stats(features), simd_stats(features);
  row->kernel_scalar_s = TimeKernelFold(kernels::ScalarKernel(), columns, leaf.y,
                                        rows, reps, &scalar_stats);
  row->kernel_simd_s = TimeKernelFold(kernels::SimdKernel(), columns, leaf.y,
                                      rows, reps, &simd_stats);
  row->kernel_speedup = row->kernel_simd_s > 0
                            ? row->kernel_scalar_s / row->kernel_simd_s
                            : 0.0;
  row->kernel_bit_identical = scalar_stats.BitIdenticalTo(simd_stats);
}

GridRow RunCell(int64_t rows, int64_t features, int transforms, uint64_t seed) {
  LeafData leaf = MakeLeaf(rows, features, seed);
  std::vector<std::vector<int>> subsets = MakeSubsets(features, transforms);
  GridRow row;
  row.rows = rows;
  row.features = features;
  row.transforms = static_cast<int>(subsets.size());
  std::vector<LinearModel> qr_models, stats_models, merge_models;
  row.qr_s = RunQrPath(leaf, subsets, &qr_models);
  row.stats_s = RunStatsPath(leaf, subsets, &stats_models);
  row.merge_s = RunMergePath(leaf, subsets, &merge_models);
  row.speedup = row.stats_s > 0 ? row.qr_s / row.stats_s : 0.0;
  row.max_delta = std::max(MaxModelDelta(stats_models, qr_models),
                           MaxModelDelta(merge_models, qr_models));
  RunKernelPaths(leaf, &row);
  return row;
}

void WriteJson(const std::string& path, const std::vector<GridRow>& grid) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"grid\": [\n");
  for (size_t i = 0; i < grid.size(); ++i) {
    const GridRow& r = grid[i];
    std::fprintf(f,
                 "    {\"rows\": %lld, \"features\": %lld, \"transforms\": %d, "
                 "\"qr_s\": %.5f, \"suffstats_s\": %.5f, \"merge_s\": %.5f, "
                 "\"speedup\": %.2f, \"max_coef_delta\": %.3g, "
                 "\"kernel_scalar_s\": %.5f, \"kernel_simd_s\": %.5f, "
                 "\"kernel_speedup\": %.2f, \"kernel_bit_identical\": %s}%s\n",
                 static_cast<long long>(r.rows), static_cast<long long>(r.features),
                 r.transforms, r.qr_s, r.stats_s, r.merge_s, r.speedup, r.max_delta,
                 r.kernel_scalar_s, r.kernel_simd_s, r.kernel_speedup,
                 r.kernel_bit_identical ? "true" : "false",
                 i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nrecorded the grid in %s\n", path.c_str());
}

std::vector<GridRow> RunGrid(bool smoke) {
  std::vector<GridRow> grid;
  if (smoke) {
    grid.push_back(RunCell(20000, 8, 16, 42));
    return grid;
  }
  grid.push_back(RunCell(10000, 4, 8, 42));
  grid.push_back(RunCell(10000, 8, 16, 43));
  grid.push_back(RunCell(100000, 4, 8, 44));
  grid.push_back(RunCell(100000, 8, 8, 45));
  grid.push_back(RunCell(100000, 8, 16, 46));  // flagship: >= 3x required
  return grid;
}

void PrintGrid(const std::vector<GridRow>& grid) {
  std::vector<int> widths = {8, 9, 11, 9, 12, 9, 9, 11, 10, 9, 8, 5};
  PrintRule(widths);
  PrintTableRow(widths, {"rows", "features", "transforms", "QR s", "suffstats s",
                         "merge s", "speedup", "max delta", "k-scalar s",
                         "k-simd s", "k-speed", "bits"});
  PrintRule(widths);
  for (const GridRow& r : grid) {
    PrintTableRow(widths,
                  {std::to_string(r.rows), std::to_string(r.features),
                   std::to_string(r.transforms), Fmt(r.qr_s, 3), Fmt(r.stats_s, 3),
                   Fmt(r.merge_s, 3), Fmt(r.speedup, 1) + "x",
                   Fmt(r.max_delta, 10), Fmt(r.kernel_scalar_s, 4),
                   Fmt(r.kernel_simd_s, 4), Fmt(r.kernel_speedup, 2) + "x",
                   r.kernel_bit_identical ? "ok" : "DIFF"});
  }
  PrintRule(widths);
}

void BM_LeafFitQr(benchmark::State& state) {
  LeafData leaf = MakeLeaf(state.range(0), 8, 42);
  std::vector<std::vector<int>> subsets = MakeSubsets(8, 16);
  for (auto _ : state) {
    std::vector<LinearModel> models;
    benchmark::DoNotOptimize(RunQrPath(leaf, subsets, &models));
  }
}
BENCHMARK(BM_LeafFitQr)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_LeafFitSuffStats(benchmark::State& state) {
  LeafData leaf = MakeLeaf(state.range(0), 8, 42);
  std::vector<std::vector<int>> subsets = MakeSubsets(8, 16);
  for (auto _ : state) {
    std::vector<LinearModel> models;
    benchmark::DoNotOptimize(RunStatsPath(leaf, subsets, &models));
  }
}
BENCHMARK(BM_LeafFitSuffStats)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace charles

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  charles::bench::PrintHeader(
      std::string("L1: leaf-fit paths over a rows x features x transforms grid") +
          (smoke ? " (smoke)" : ""),
      "suffstats path >= 3x over QR-per-(leaf, T) at 100k x 8 x 16");
  std::vector<charles::bench::GridRow> grid = charles::bench::RunGrid(smoke);
  charles::bench::PrintGrid(grid);

  if (smoke) {
    const charles::bench::GridRow& r = grid.front();
    // Generous floor (the real margin is much larger) so CI noise cannot
    // flake, while a genuine regression — e.g. the fast path silently
    // falling back to QR — still fails loudly.
    if (r.speedup < 1.5) {
      std::fprintf(stderr, "FAIL: leaf-fit speedup %.2fx < 1.5x\n", r.speedup);
      return 1;
    }
    if (r.max_delta > 1e-6) {
      std::fprintf(stderr, "FAIL: paths disagree (max delta %.3g)\n", r.max_delta);
      return 1;
    }
    // The kernel contract is exact, so this gate is too: a single moment bit
    // differing between the scalar and vectorized kernels is a hard failure,
    // no tolerance. (Throughput is informational here — a perf gate on the
    // kernels would flake on noisy CI runners.)
    if (!r.kernel_bit_identical) {
      std::fprintf(stderr,
                   "FAIL: scalar and %s kernels produced different bits\n",
                   charles::kernels::SimdKernel().name);
      return 1;
    }
    std::printf("smoke OK: %.1fx, max delta %.3g, kernels bit-identical "
                "(%s %.2fx vs scalar)\n",
                r.speedup, r.max_delta, charles::kernels::SimdKernel().name,
                r.kernel_speedup);
    return 0;
  }

  charles::bench::WriteJson("BENCH_leaffit.json", grid);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
