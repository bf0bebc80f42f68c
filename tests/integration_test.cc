/// \file
/// End-to-end property sweeps: plant a policy, synthesize the target
/// snapshot, run the full pipeline, and check that the planted semantics are
/// recovered — across dataset sizes, seeds, policy shapes, and data domains.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "core/charles.h"
#include "workload/billionaires_gen.h"
#include "workload/employee_gen.h"
#include "workload/example1.h"
#include "workload/montgomery_gen.h"

namespace charles {
namespace {

/// Parameters of one planted-recovery scenario.
struct Scenario {
  const char* name;
  int64_t rows;
  uint64_t seed;
  int segments;  // 0 = the Example-1 bonus policy, else a segmented policy
};

// gtest's default printer dumps the raw object bytes into every ctest name:
// the `name` pointer (an ASLR address) and the padding after `segments`
// changed from build to build. Print the same dump with both zeroed, so
// each case keeps one stable name; the case's name is in the suffix
// ScenarioName gives it.
void PrintTo(const Scenario& s, std::ostream* os) {
  unsigned char bytes[sizeof(Scenario)] = {};
  std::memcpy(bytes + offsetof(Scenario, rows), &s.rows, sizeof s.rows);
  std::memcpy(bytes + offsetof(Scenario, seed), &s.seed, sizeof s.seed);
  std::memcpy(bytes + offsetof(Scenario, segments), &s.segments, sizeof s.segments);
  *os << sizeof bytes << "-byte object <";
  for (size_t i = 0; i < sizeof bytes; ++i) {
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
    if (i > 0) *os << (i % 2 == 0 ? ' ' : '-');
    *os << hex;
  }
  *os << '>';
}

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  return std::string(info.param.name) + "_" + std::to_string(info.param.rows) + "r_s" +
         std::to_string(info.param.seed);
}

class PlantedPolicyRecovery : public ::testing::TestWithParam<Scenario> {};

TEST_P(PlantedPolicyRecovery, TopSummaryRecoversPlantedRules) {
  const Scenario& scenario = GetParam();
  EmployeeGenOptions gen;
  gen.num_rows = scenario.rows;
  gen.seed = scenario.seed;
  Table source = GenerateEmployees(gen).ValueOrDie();

  Policy policy;
  std::string target_attr;
  if (scenario.segments == 0) {
    policy = MakeEmployeeBonusPolicy();
    target_attr = "bonus";
  } else {
    policy = MakeSegmentedSalaryPolicy(scenario.segments).ValueOrDie();
    target_attr = "salary";
  }
  Table target = policy.Apply(source).ValueOrDie();

  CharlesOptions options;
  options.target_attribute = target_attr;
  options.key_columns = {"emp_id"};
  if (scenario.segments > 3) options.tree_max_depth = 5;  // deep bands need depth
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  ASSERT_FALSE(result.summaries.empty());
  const ChangeSummary& top = result.summaries[0];

  // The planted policy is exactly representable: the winner must be exact.
  EXPECT_GT(top.scores().accuracy, 0.999) << top.ToString();

  RecoveryOptions recovery_options;
  recovery_options.min_partition_jaccard = 0.95;
  RecoveryReport recovery =
      EvaluateRecovery(policy, top, source, recovery_options).ValueOrDie();
  EXPECT_DOUBLE_EQ(recovery.rule_recall, 1.0) << top.ToString();
  EXPECT_DOUBLE_EQ(recovery.rule_precision, 1.0) << top.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlantedPolicyRecovery,
    ::testing::Values(Scenario{"bonus", 300, 1, 0}, Scenario{"bonus", 1000, 2, 0},
                      Scenario{"bonus", 3000, 3, 0}, Scenario{"bonus", 1000, 99, 0},
                      Scenario{"bands", 1000, 4, 2}, Scenario{"bands", 1000, 5, 3},
                      Scenario{"bands", 1500, 6, 4}, Scenario{"bands", 2000, 7, 5}),
    ScenarioName);

/// Property: the pipeline is invariant to row order — shuffling both
/// snapshots identically must produce the same top summary semantics.
TEST(PipelineInvariance, RowOrderDoesNotMatter) {
  EmployeeGenOptions gen;
  gen.num_rows = 500;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();

  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  SummaryList base = SummarizeChanges(source, target, options).ValueOrDie();

  // Reverse the source rows (and shuffle the target differently — alignment
  // is by key, not position).
  std::vector<int64_t> reversed;
  for (int64_t i = source.num_rows() - 1; i >= 0; --i) reversed.push_back(i);
  // RowSet sorts indices, so build the reversed table row by row instead.
  TableBuilder source_builder(source.schema());
  for (int64_t i = source.num_rows() - 1; i >= 0; --i) {
    CHARLES_CHECK_OK(source_builder.AppendRow(source.GetRow(i)));
  }
  Table reversed_source = source_builder.Finish().ValueOrDie();
  SummaryList shuffled = SummarizeChanges(reversed_source, target, options).ValueOrDie();

  EXPECT_DOUBLE_EQ(base.summaries[0].scores().accuracy,
                   shuffled.summaries[0].scores().accuracy);
  EXPECT_EQ(base.summaries[0].num_cts(), shuffled.summaries[0].num_cts());
  // Condition/transform text must agree (partitions are key-aligned).
  EXPECT_EQ(base.summaries[0].Signature(), shuffled.summaries[0].Signature());
}

/// Property: applying the mined summary via its SQL rendering semantics
/// (first-match CASE) reproduces exactly what Apply() computes.
TEST(PipelineInvariance, SummaryApplyIsIdempotentOnExactPolicies) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  const ChangeSummary& top = result.summaries[0];
  std::vector<double> once = top.Apply(source).ValueOrDie();
  std::vector<double> y_new = *target.ColumnAsDoubles("bonus");
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(once[i], y_new[i], 1e-6);
  }
}

/// Property: every summary the engine returns satisfies structural
/// invariants — disjoint partitions covering all rows, coverage bookkeeping
/// consistent, scores in [0, 1].
class SummaryInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SummaryInvariants, HoldForEveryReturnedSummary) {
  EmployeeGenOptions gen;
  gen.num_rows = 400;
  gen.seed = GetParam();
  gen.num_decoy_numeric = 2;
  Table source = GenerateEmployees(gen).ValueOrDie();
  PolicyApplicationOptions apply;
  apply.noise_stddev = 25.0;
  apply.seed = GetParam();
  Table target = MakeEmployeeBonusPolicy().Apply(source, apply).ValueOrDie();

  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  options.top_n = 50;
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  ASSERT_FALSE(result.summaries.empty());

  for (const ChangeSummary& summary : result.summaries) {
    const ScoreBreakdown& scores = summary.scores();
    EXPECT_GE(scores.accuracy, 0.0);
    EXPECT_LE(scores.accuracy, 1.0);
    EXPECT_GE(scores.interpretability, 0.0);
    EXPECT_LE(scores.interpretability, 1.0);
    EXPECT_NEAR(scores.score,
                options.alpha * scores.accuracy +
                    (1 - options.alpha) * scores.interpretability,
                1e-12);

    RowSet all_rows;
    int64_t total = 0;
    for (const ConditionalTransform& ct : summary.cts()) {
      EXPECT_FALSE(ct.rows.empty());
      EXPECT_NEAR(ct.coverage, ct.rows.Coverage(source.num_rows()), 1e-12);
      // Conditions faithfully describe their partitions.
      RowSet filtered = FilterRows(source, *ct.condition).ValueOrDie();
      EXPECT_EQ(filtered, ct.rows) << ct.condition->ToString();
      all_rows = all_rows.Union(ct.rows);
      total += ct.rows.size();
    }
    EXPECT_EQ(all_rows, RowSet::All(source.num_rows()));  // cover
    EXPECT_EQ(total, source.num_rows());                  // disjoint
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryInvariants, ::testing::Values(11, 22, 33, 44));

/// Cross-domain smoke: every bundled generator round-trips through the whole
/// pipeline with an exact-recovery result.
TEST(CrossDomain, AllGeneratorsRecoverTheirPolicies) {
  {
    MontgomeryGenOptions gen;
    gen.num_rows = 800;
    Table source = GenerateMontgomery2016(gen).ValueOrDie();
    Table target = GenerateMontgomery2017(source).ValueOrDie();
    CharlesOptions options;
    options.target_attribute = "base_salary";
    options.key_columns = {"employee_id"};
    SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
    EXPECT_GT(result.summaries[0].scores().accuracy, 0.999);
  }
  {
    BillionairesGenOptions gen;
    gen.num_rows = 600;
    Table source = GenerateBillionaires(gen).ValueOrDie();
    Table target = MakeMarketPolicy().Apply(source).ValueOrDie();
    CharlesOptions options;
    options.target_attribute = "net_worth";
    options.key_columns = {"person_id"};
    SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
    EXPECT_GT(result.summaries[0].scores().accuracy, 0.99);
  }
}

}  // namespace
}  // namespace charles
