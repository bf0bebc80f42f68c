#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/engine_context.h"
#include "csv/csv_reader.h"
#include "workload/billionaires_gen.h"
#include "workload/employee_gen.h"
#include "workload/example1.h"
#include "workload/montgomery_gen.h"
#include "workload/policy.h"

namespace charles {
namespace {

CharlesOptions Example1Options() {
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  return options;
}

TEST(EngineTest, Example1TopSummaryIsExactAndExample1Shaped) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  SummaryList result = SummarizeChanges(source, target, Example1Options()).ValueOrDie();
  ASSERT_FALSE(result.summaries.empty());
  const ChangeSummary& top = result.summaries[0];
  // The paper: the Example-1 summary "incurs a very high score of 89%".
  EXPECT_NEAR(top.scores().accuracy, 1.0, 1e-9);
  EXPECT_GT(top.scores().score, 0.8);
  // It recovers the R1-R3 policy (partitions + coefficients).
  RecoveryReport recovery =
      EvaluateRecovery(MakeExample1Policy(), top, source).ValueOrDie();
  EXPECT_DOUBLE_EQ(recovery.rule_recall, 1.0);
  EXPECT_DOUBLE_EQ(recovery.rule_precision, 1.0);
}

TEST(EngineTest, ReturnsTopNRankedDescending) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();
  options.top_n = 5;
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  EXPECT_EQ(result.summaries.size(), 5u);
  for (size_t i = 1; i < result.summaries.size(); ++i) {
    EXPECT_GE(result.summaries[i - 1].scores().score + 1e-9,
              result.summaries[i].scores().score);
  }
}

TEST(EngineTest, DeterministicAcrossRuns) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  SummaryList a = SummarizeChanges(source, target, Example1Options()).ValueOrDie();
  SummaryList b = SummarizeChanges(source, target, Example1Options()).ValueOrDie();
  ASSERT_EQ(a.summaries.size(), b.summaries.size());
  for (size_t i = 0; i < a.summaries.size(); ++i) {
    EXPECT_EQ(a.summaries[i].Signature(), b.summaries[i].Signature());
    EXPECT_DOUBLE_EQ(a.summaries[i].scores().score, b.summaries[i].scores().score);
  }
}

TEST(EngineTest, SummariesAreDeduplicated) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();
  options.top_n = 100;
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  std::set<std::string> signatures;
  for (const auto& summary : result.summaries) {
    EXPECT_TRUE(signatures.insert(summary.Signature()).second)
        << "duplicate: " << summary.Signature();
  }
  EXPECT_GE(result.candidates_evaluated,
            static_cast<int64_t>(result.summaries.size()));
}

TEST(EngineTest, EverySummaryHasAModelTree) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  SummaryList result = SummarizeChanges(source, target, Example1Options()).ValueOrDie();
  for (const auto& summary : result.summaries) {
    ASSERT_NE(summary.tree(), nullptr);
    EXPECT_EQ(summary.tree()->num_leaves(), summary.num_cts());
    EXPECT_FALSE(summary.tree()->Render().empty());
  }
}

TEST(EngineTest, AppliedTopSummaryReconstructsTarget) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  SummaryList result = SummarizeChanges(source, target, Example1Options()).ValueOrDie();
  std::vector<double> y_hat = result.summaries[0].Apply(source).ValueOrDie();
  std::vector<double> y_new = *target.ColumnAsDoubles("bonus");
  for (size_t i = 0; i < y_hat.size(); ++i) {
    EXPECT_NEAR(y_hat[i], y_new[i], 1e-6) << "row " << i;
  }
}

TEST(EngineTest, AttributeOverridesAreHonoured) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();
  options.condition_attributes = {"gen"};
  options.transform_attributes = {"salary"};
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  EXPECT_EQ(result.setup.ConditionNames(), (std::vector<std::string>{"gen"}));
  EXPECT_EQ(result.setup.TransformNames(), (std::vector<std::string>{"salary"}));
  for (const auto& summary : result.summaries) {
    for (const auto& ct : summary.cts()) {
      std::vector<std::string> cols;
      ct.condition->CollectColumns(&cols);
      for (const auto& col : cols) EXPECT_EQ(col, "gen");
    }
  }
}

TEST(EngineTest, BadOverridesRejected) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();
  options.condition_attributes = {"no_such_column"};
  EXPECT_TRUE(SummarizeChanges(source, target, options).status().IsNotFound());
  CharlesOptions options2 = Example1Options();
  options2.transform_attributes = {"edu"};  // non-numeric
  EXPECT_TRUE(SummarizeChanges(source, target, options2).status().IsTypeError());
}

TEST(EngineTest, OptionValidationErrors) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();
  options.alpha = 1.5;
  EXPECT_TRUE(SummarizeChanges(source, target, options).status().IsOutOfRange());
  CharlesOptions no_target;
  no_target.key_columns = {"name"};
  EXPECT_TRUE(SummarizeChanges(source, target, no_target).status().IsInvalidArgument());
}

TEST(EngineTest, UnknownShardBackendIsRejectedByName) {
  // A value outside the enum is rejected up front whether or not the run
  // shards — never a null backend after phases 1–2, never silently ignored.
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  for (int shards : {0, 2}) {
    CharlesOptions options = Example1Options();
    options.num_shards = shards;
    options.shard_backend = static_cast<ShardBackendKind>(7);
    Status validated = options.Validate();
    ASSERT_TRUE(validated.IsInvalidArgument()) << validated.ToString();
    EXPECT_NE(validated.message().find("shard_backend"), std::string::npos)
        << validated.ToString();
    EXPECT_NE(validated.message().find("7"), std::string::npos)
        << validated.ToString();
    Status run = SummarizeChanges(source, target, options).status();
    EXPECT_TRUE(run.IsInvalidArgument()) << "shards " << shards << ": "
                                         << run.ToString();
  }
}

TEST(EngineTest, AlphaZeroFavoursSmallSummaries) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions interp = Example1Options();
  interp.alpha = 0.0;
  SummaryList result = SummarizeChanges(source, target, interp).ValueOrDie();
  // With accuracy ignored, the single-CT summaries must win.
  EXPECT_EQ(result.summaries[0].num_cts(), 1);
}

TEST(EngineTest, AlphaOneFavoursExactSummaries) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions acc = Example1Options();
  acc.alpha = 1.0;
  SummaryList result = SummarizeChanges(source, target, acc).ValueOrDie();
  EXPECT_NEAR(result.summaries[0].scores().accuracy, 1.0, 1e-9);
}

TEST(EngineTest, MontgomeryPolicyRecovered) {
  MontgomeryGenOptions gen;
  gen.num_rows = 1500;
  Table source = GenerateMontgomery2016(gen).ValueOrDie();
  Table target = GenerateMontgomery2017(source).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "base_salary";
  options.key_columns = {"employee_id"};
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  ASSERT_FALSE(result.summaries.empty());
  // The top summary must explain nearly all change mass.
  EXPECT_GT(result.summaries[0].scores().accuracy, 0.95);
}

TEST(EngineTest, BillionairesIndustryPolicyRecovered) {
  BillionairesGenOptions gen;
  gen.num_rows = 800;
  Table source = GenerateBillionaires(gen).ValueOrDie();
  Table target = MakeMarketPolicy().Apply(source).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "net_worth";
  options.key_columns = {"person_id"};
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  const ChangeSummary& top = result.summaries[0];
  EXPECT_GT(top.scores().accuracy, 0.9);
  // Industry must appear in the winning conditions.
  bool mentions_industry = false;
  for (const auto& ct : top.cts()) {
    std::vector<std::string> cols;
    ct.condition->CollectColumns(&cols);
    for (const auto& col : cols) {
      if (col == "industry") mentions_industry = true;
    }
  }
  EXPECT_TRUE(mentions_industry);
}

TEST(EngineTest, IdenticalSnapshotsYieldNoChangeSummary) {
  Table source = MakeExample1Source().ValueOrDie();
  SummaryList result = SummarizeChanges(source, source, Example1Options()).ValueOrDie();
  ASSERT_FALSE(result.summaries.empty());
  const ChangeSummary& top = result.summaries[0];
  EXPECT_EQ(top.num_cts(), 1);
  EXPECT_TRUE(top.cts()[0].transform.is_no_change());
  EXPECT_DOUBLE_EQ(top.scores().accuracy, 1.0);
}

/// The snapshot with every row dropped: same schema, zero rows.
Table EmptyLike(const Table& table) {
  return table.Take(RowSet(std::vector<int64_t>{})).ValueOrDie();
}

TEST(EngineTest, EmptySourceSnapshotIsRejectedByName) {
  Table source = EmptyLike(MakeExample1Source().ValueOrDie());
  Table target = MakeExample1Target().ValueOrDie();
  Status status = SummarizeChanges(source, target, Example1Options()).status();
  ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("source snapshot is empty"), std::string::npos)
      << status.ToString();
}

TEST(EngineTest, EmptyTargetSnapshotIsRejectedByName) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = EmptyLike(MakeExample1Target().ValueOrDie());
  Status status = SummarizeChanges(source, target, Example1Options()).status();
  ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("target snapshot is empty"), std::string::npos)
      << status.ToString();
}

TEST(EngineTest, HeaderOnlyCsvSnapshotsAreRejectedAsEmpty) {
  // Two header-only CSVs used to fail with a type error about a string
  // column's numeric view; the error now says what is wrong.
  Table source = CsvReader::ReadString("name,bonus\n").ValueOrDie();
  Table target = CsvReader::ReadString("name,bonus\n").ValueOrDie();
  Status status = SummarizeChanges(source, target, Example1Options()).status();
  ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("source and target snapshots are empty"),
            std::string::npos)
      << status.ToString();
}

/// Runs 300 employee rows under the bonus policy with `bad` written into the
/// bonus of rows 40 and 200 of one snapshot, and checks the run fails with
/// an error naming the target, the snapshot, row 40, its key and the value —
/// never an OK run with nothing ranked.
void ExpectNonFiniteBonusRejected(CharlesOptions options, EngineContext* context) {
  EmployeeGenOptions gen;
  gen.num_rows = 300;
  const Table clean_source = GenerateEmployees(gen).ValueOrDie();
  const Table clean_target = MakeEmployeeBonusPolicy().Apply(clean_source).ValueOrDie();
  const int bonus = clean_source.schema().FieldIndex("bonus").ValueOrDie();
  const std::string key =
      "emp_id=" + clean_source.GetValueByName(40, "emp_id").ValueOrDie().ToString();
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  options.stats_block_rows = 64;  // enough blocks for 4 shards
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    double value;
    const char* spelled;
  } cases[] = {{std::numeric_limits<double>::quiet_NaN(), "is nan"},
               {kInf, "is inf"},
               {-kInf, "is -inf"}};
  for (const auto& bad : cases) {
    for (const bool in_source : {false, true}) {
      Table source = clean_source;
      Table target = clean_target;
      Table& poisoned = in_source ? source : target;
      ASSERT_TRUE(poisoned.SetValue(40, bonus, Value(bad.value)).ok());
      ASSERT_TRUE(poisoned.SetValue(200, bonus, Value(bad.value)).ok());
      Status status = SummarizeChanges(source, target, options, context).status();
      SCOPED_TRACE(std::string(bad.spelled) + (in_source ? " in source" : " in target"));
      ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
      for (const std::string& part :
           {std::string("'bonus'"), std::string(bad.spelled),
            std::string(in_source ? "source snapshot" : "target snapshot"),
            std::string("row 40 "), key}) {
        EXPECT_NE(status.message().find(part), std::string::npos)
            << "missing '" << part << "' in: " << status.ToString();
      }
    }
  }
}

TEST(EngineTest, NonFiniteTargetIsRejectedSerial) {
  CharlesOptions options;
  options.num_threads = 1;
  ExpectNonFiniteBonusRejected(options, nullptr);
}

TEST(EngineTest, NonFiniteTargetIsRejectedAtFourThreads) {
  CharlesOptions options;
  options.num_threads = 4;
  ExpectNonFiniteBonusRejected(options, nullptr);
}

TEST(EngineTest, NonFiniteTargetIsRejectedAtFourShards) {
  CharlesOptions options;
  options.num_threads = 2;
  options.num_shards = 4;
  ExpectNonFiniteBonusRejected(options, nullptr);
}

TEST(EngineTest, NonFiniteTargetIsRejectedWithAContext) {
  EngineContextOptions context_options;
  context_options.num_threads = 2;
  EngineContext context(context_options);
  ExpectNonFiniteBonusRejected(CharlesOptions{}, &context);
  // A rejected run caches nothing.
  EXPECT_EQ(context.phase_cache_entries(), 0u);
  EXPECT_EQ(context.leaf_cache_entries(), 0u);
}

/// The finite-input contract for the shortlisted columns: a NaN or ±inf
/// cell in a transformation or numeric condition column of the source
/// snapshot fails naming the column, the snapshot, row 40, its key and the
/// value; finite target values so large (±1e308) that their sum of squares
/// overflows fail naming the target. Never an OK run with nothing ranked.
void ExpectHostileShortlistRejected(CharlesOptions options, EngineContext* context) {
  EmployeeGenOptions gen;
  gen.num_rows = 300;
  gen.num_decoy_numeric = 1;
  const Table clean_source = GenerateEmployees(gen).ValueOrDie();
  const Table clean_target = MakeEmployeeBonusPolicy().Apply(clean_source).ValueOrDie();
  const std::string key =
      "emp_id=" + clean_source.GetValueByName(40, "emp_id").ValueOrDie().ToString();
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  options.stats_block_rows = 64;  // enough blocks for 4 shards
  options.condition_attributes = {"edu", "exp", "decoy_num_0"};
  options.transform_attributes = {"bonus", "salary"};
  auto expect_rejected = [&](const Table& source, const Table& target,
                             const std::vector<std::string>& parts) {
    Status status = SummarizeChanges(source, target, options, context).status();
    ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
    for (const std::string& part : parts) {
      EXPECT_NE(status.message().find(part), std::string::npos)
          << "missing '" << part << "' in: " << status.ToString();
    }
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    double value;
    const char* spelled;
  } cases[] = {{std::numeric_limits<double>::quiet_NaN(), "is nan"},
               {kInf, "is inf"},
               {-kInf, "is -inf"}};
  const struct {
    const char* column;
    const char* role;
  } columns[] = {{"salary", "transformation attribute"},
                 {"decoy_num_0", "condition attribute"}};
  for (const auto& column : columns) {
    const int index = clean_source.schema().FieldIndex(column.column).ValueOrDie();
    for (const auto& bad : cases) {
      SCOPED_TRACE(std::string(column.column) + " " + bad.spelled);
      Table source = clean_source;
      ASSERT_TRUE(source.SetValue(40, index, Value(bad.value)).ok());
      ASSERT_TRUE(source.SetValue(200, index, Value(bad.value)).ok());
      expect_rejected(source, clean_target,
                      {std::string(column.role) + " '" + column.column + "'",
                       bad.spelled, "source snapshot", "row 40 ", key});
    }
  }

  const int bonus = clean_source.schema().FieldIndex("bonus").ValueOrDie();
  for (const bool in_source : {false, true}) {
    SCOPED_TRACE(in_source ? "overflow in source" : "overflow in target");
    Table source = clean_source;
    Table target = clean_target;
    Table& poisoned = in_source ? source : target;
    ASSERT_TRUE(poisoned.SetValue(40, bonus, Value(1e308)).ok());
    ASSERT_TRUE(poisoned.SetValue(200, bonus, Value(-1e308)).ok());
    expect_rejected(source, target, {"'bonus'", "overflows"});
  }
}

TEST(EngineTest, HostileShortlistIsRejectedSerial) {
  CharlesOptions options;
  options.num_threads = 1;
  ExpectHostileShortlistRejected(options, nullptr);
}

TEST(EngineTest, HostileShortlistIsRejectedAtFourThreads) {
  CharlesOptions options;
  options.num_threads = 4;
  ExpectHostileShortlistRejected(options, nullptr);
}

TEST(EngineTest, HostileShortlistIsRejectedAtFourShards) {
  CharlesOptions options;
  options.num_threads = 2;
  options.num_shards = 4;
  ExpectHostileShortlistRejected(options, nullptr);
}

TEST(EngineTest, HostileShortlistIsRejectedWithAContext) {
  EngineContextOptions context_options;
  context_options.num_threads = 2;
  EngineContext context(context_options);
  ExpectHostileShortlistRejected(CharlesOptions{}, &context);
  // A rejected run caches nothing.
  EXPECT_EQ(context.phase_cache_entries(), 0u);
  EXPECT_EQ(context.leaf_cache_entries(), 0u);
}

/// Finite but huge old target values: a few ±1e300 bonus cells in the
/// source, which reach phase 1 as change signals (deltas of ∓1e300) whose
/// squares overflow. With or without the old target offered as a
/// transformation feature, the run ends in an error naming the target or
/// in a non-empty ranking — the same one at 1 thread, 4 threads and 4
/// shards.
TEST(EngineTest, HugeOldTargetValuesEndTheSameOnEveryBackend) {
  EmployeeGenOptions gen;
  gen.num_rows = 300;
  Table source = GenerateEmployees(gen).ValueOrDie();
  const Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  const int bonus = source.schema().FieldIndex("bonus").ValueOrDie();
  ASSERT_TRUE(source.SetValue(40, bonus, Value(1e300)).ok());
  ASSERT_TRUE(source.SetValue(120, bonus, Value(-1e300)).ok());
  ASSERT_TRUE(source.SetValue(200, bonus, Value(1e300)).ok());

  for (const bool offer_old_target : {true, false}) {
    SCOPED_TRACE(offer_old_target ? "old target offered" : "old target not offered");
    CharlesOptions base;
    base.target_attribute = "bonus";
    base.key_columns = {"emp_id"};
    base.stats_block_rows = 64;  // enough blocks for 4 shards
    base.include_old_target_in_transform = offer_old_target;
    if (!offer_old_target) base.transform_attributes = {"salary"};

    std::vector<CharlesOptions> variants(3, base);
    variants[0].num_threads = 1;
    variants[1].num_threads = 4;
    variants[2].num_threads = 2;
    variants[2].num_shards = 4;
    std::vector<std::string> outcomes;
    for (const CharlesOptions& options : variants) {
      Result<SummaryList> result = SummarizeChanges(source, target, options);
      std::string outcome;
      if (result.ok()) {
        EXPECT_FALSE(result->summaries.empty()) << "OK with nothing ranked";
        for (const ChangeSummary& summary : result->summaries) {
          outcome += summary.ToString() + FormatDouble(summary.scores().score, 17) + "\n";
        }
      } else {
        EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
        EXPECT_NE(result.status().message().find("'bonus'"), std::string::npos)
            << result.status().ToString();
        outcome = result.status().ToString();
      }
      outcomes.push_back(outcome);
    }
    EXPECT_EQ(outcomes[1], outcomes[0]) << "4 threads";
    EXPECT_EQ(outcomes[2], outcomes[0]) << "4 shards";
  }
}

TEST(EngineTest, SearchSpaceDiagnosticsPopulated) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  SummaryList result = SummarizeChanges(source, target, Example1Options()).ValueOrDie();
  EXPECT_GT(result.condition_subsets, 0);
  EXPECT_GT(result.transform_subsets, 0);
  EXPECT_GT(result.candidates_evaluated, 0);
  EXPECT_GE(result.elapsed_seconds, 0.0);
}

}  // namespace
}  // namespace charles
