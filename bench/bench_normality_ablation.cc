/// \file
/// Experiment E10 (§2 normality desideratum: "5% is more normal than
/// 2.479%"): ablation of constant snapping. With snapping on, fitted rules on
/// noisy data land on the planted round constants; with it off, raw OLS
/// coefficients leak into the summaries and the normality sub-score drops.
///
/// `--smoke` prints the same table and exits non-zero if, at noise
/// σ ∈ {0, 20}, snapping-on loses the planted constants (coef err above
/// 1e-9, i.e. beyond floating-point residue) or scores lower normality than
/// snapping-off — the CI tripwire for snapping.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "workload/employee_gen.h"

namespace charles {
namespace bench {
namespace {

struct AblationOutcome {
  double normality;
  double interpretability;
  double accuracy;
  double score;
  double coefficient_error;
};

AblationOutcome RunWith(bool snapping, double noise) {
  EmployeeGenOptions gen;
  gen.num_rows = 2000;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Policy policy = MakeEmployeeBonusPolicy();
  PolicyApplicationOptions apply_options;
  apply_options.noise_stddev = noise;
  apply_options.seed = 3;
  Table target = policy.Apply(source, apply_options).ValueOrDie();
  CharlesOptions options = DefaultBenchOptions("bonus", "emp_id");
  options.normality.enable_snapping = snapping;
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  const ChangeSummary& top = result.summaries[0];
  RecoveryOptions recovery_options;
  recovery_options.min_partition_jaccard = 0.85;
  recovery_options.transform_tolerance = 0.05;
  RecoveryReport recovery =
      EvaluateRecovery(policy, top, source, recovery_options).ValueOrDie();
  return AblationOutcome{top.scores().normality, top.scores().interpretability,
                         top.scores().accuracy, top.scores().score,
                         recovery.mean_coefficient_error};
}

/// Largest coef err the smoke counts as "recovered the planted constants".
constexpr double kCoefficientResidue = 1e-9;

/// Prints the E10 table; returns the number of smoke-gated noise levels
/// (σ ∈ {0, 20}) where snapping-on lost the planted constants or scored
/// lower normality than snapping-off.
int PrintExperiment() {
  PrintHeader("E10: normality snapping ablation",
              "snapping recovers the planted round constants under noise at "
              "negligible accuracy cost");

  std::vector<int> widths = {12, 10, 10, 9, 9, 9, 10};
  PrintRule(widths);
  PrintTableRow(widths, {"noise sigma", "snapping", "normality", "interp", "accuracy",
                         "score", "coef err"});
  PrintRule(widths);
  int failures = 0;
  for (double noise : {0.0, 20.0, 50.0}) {
    AblationOutcome on{};
    AblationOutcome off{};
    for (bool snapping : {true, false}) {
      AblationOutcome outcome = RunWith(snapping, noise);
      PrintTableRow(widths,
                    {Fmt(noise, 0), snapping ? "on" : "off", Fmt(outcome.normality, 3),
                     Fmt(outcome.interpretability, 3), Fmt(outcome.accuracy, 3),
                     Fmt(outcome.score, 3), Fmt(outcome.coefficient_error, 4)});
      (snapping ? on : off) = outcome;
    }
    // The recovered constants equal the planted ones up to floating-point
    // residue (~1e-15); a lost constant errs by orders of magnitude more.
    if (noise <= 20.0 &&
        (on.coefficient_error > kCoefficientResidue || on.normality < off.normality)) {
      std::fprintf(stderr,
                   "noise %g: snapping-on coef err %.17g, normality on %.17g vs off %.17g\n",
                   noise, on.coefficient_error, on.normality, off.normality);
      ++failures;
    }
  }
  PrintRule(widths);
  return failures;
}

void BM_SnappingRun(benchmark::State& state) {
  EmployeeGenOptions gen;
  gen.num_rows = 2000;
  Table source = GenerateEmployees(gen).ValueOrDie();
  PolicyApplicationOptions apply_options;
  apply_options.noise_stddev = 20.0;
  Table target = MakeEmployeeBonusPolicy().Apply(source, apply_options).ValueOrDie();
  CharlesOptions options = DefaultBenchOptions("bonus", "emp_id");
  options.normality.enable_snapping = state.range(0) != 0;
  for (auto _ : state) {
    SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
    benchmark::DoNotOptimize(result.summaries[0].scores().score);
  }
}
BENCHMARK(BM_SnappingRun)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace charles

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int failures = charles::bench::PrintExperiment();
  if (smoke) {
    if (failures > 0) {
      std::fprintf(stderr, "FAIL: at %d noise level(s) in {0, 20} snapping lost the planted "
                           "constants or scored lower normality than snapping-off\n",
                   failures);
      return 1;
    }
    std::printf("smoke OK: snapping recovered the planted constants at noise 0 and 20 "
                "and scored at least snapping-off's normality\n");
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
