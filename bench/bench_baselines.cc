/// \file
/// Experiment E6 (Example 1's R4 vs {R1,R2,R3}; related-work contrast): the
/// three-way comparison the paper's introduction motivates. A global single
/// regression (R4 analogue) is interpretable but inaccurate; the exhaustive
/// cell-level diff is exact but unreadable; ChARLES dominates both on the
/// combined score.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "workload/example1.h"
#include "workload/montgomery_gen.h"

namespace charles {
namespace bench {
namespace {

void CompareOn(const std::string& title, const Table& source, const Table& target,
               const CharlesOptions& options) {
  std::printf("-- %s --\n", title.c_str());
  CharlesEngine engine(options);
  SummaryList result = engine.Find(source, target).ValueOrDie();
  const ChangeSummary& charles_summary = result.summaries[0];

  DiffOptions diff_options;
  diff_options.key_columns = options.key_columns;
  SnapshotDiff diff = SnapshotDiff::Compute(source, target, diff_options).ValueOrDie();
  std::vector<double> y_old = *diff.SourceValues(options.target_attribute);
  std::vector<double> y_new = *diff.TargetValues(options.target_attribute);

  ChangeSummary global =
      BuildGlobalRegressionBaseline(engine, source, y_old, y_new).ValueOrDie();
  ChangeSummary cell_diff =
      BuildCellDiffBaseline(options, source, y_old, y_new).ValueOrDie();

  std::vector<int> widths = {26, 6, 9, 9, 9};
  PrintRule(widths);
  PrintTableRow(widths, {"method", "#CTs", "accuracy", "interp", "score"});
  PrintRule(widths);
  auto row = [&](const std::string& name, const ChangeSummary& s) {
    PrintTableRow(widths, {name, std::to_string(s.num_cts()), Fmt(s.scores().accuracy),
                           Fmt(s.scores().interpretability), Fmt(s.scores().score)});
  };
  row("ChARLES (top summary)", charles_summary);
  row("global regression (R4)", global);
  row("cell-level diff", cell_diff);
  PrintRule(widths);
  bool charles_wins = charles_summary.scores().score > global.scores().score &&
                      charles_summary.scores().score > cell_diff.scores().score;
  std::printf("ChARLES wins on combined score: %s\n\n", charles_wins ? "yes" : "NO");
}

void PrintExperiment() {
  PrintHeader("E6: ChARLES vs global regression vs cell-level diff",
              "R4 'does not accurately capture the change'; cell lists "
              "'overwhelm the user'; ChARLES balances both");
  {
    Table source = MakeExample1Source().ValueOrDie();
    Table target = MakeExample1Target().ValueOrDie();
    CompareOn("Example 1 (9 rows)", source, target,
              DefaultBenchOptions("bonus", "name"));
  }
  {
    MontgomeryGenOptions gen;
    gen.num_rows = 3000;
    Table source = GenerateMontgomery2016(gen).ValueOrDie();
    Table target = GenerateMontgomery2017(source).ValueOrDie();
    CompareOn("Montgomery-style synthetic (3000 rows)", source, target,
              DefaultBenchOptions("base_salary", "employee_id"));
  }
}

void BM_CellDiffBaseline(benchmark::State& state) {
  MontgomeryGenOptions gen;
  gen.num_rows = state.range(0);
  Table source = GenerateMontgomery2016(gen).ValueOrDie();
  Table target = GenerateMontgomery2017(source).ValueOrDie();
  CharlesOptions options = DefaultBenchOptions("base_salary", "employee_id");
  DiffOptions diff_options;
  diff_options.key_columns = options.key_columns;
  SnapshotDiff diff = SnapshotDiff::Compute(source, target, diff_options).ValueOrDie();
  std::vector<double> y_old = *diff.SourceValues(options.target_attribute);
  std::vector<double> y_new = *diff.TargetValues(options.target_attribute);
  for (auto _ : state) {
    ChangeSummary baseline =
        BuildCellDiffBaseline(options, source, y_old, y_new).ValueOrDie();
    benchmark::DoNotOptimize(baseline.scores().score);
  }
}
BENCHMARK(BM_CellDiffBaseline)->Arg(3000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace charles

int main(int argc, char** argv) {
  charles::bench::PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
