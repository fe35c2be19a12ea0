// Tests for the repair/choice partitioning helpers and the WSD component
// algebra.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/ast.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "worlds/component.h"
#include "worlds/decomposed_world_set.h"
#include "worlds/partition.h"

namespace maybms::worlds {
namespace {

using maybms::testing::I;
using maybms::testing::N;
using maybms::testing::Row;
using maybms::testing::T;

Table KeyedTable() {
  Schema schema({Column("K", DataType::kText),
                 Column("V", DataType::kInteger),
                 Column("W", DataType::kInteger)});
  Table t(schema);
  t.AppendUnchecked(Row({T("a"), I(1), I(2)}));
  t.AppendUnchecked(Row({T("a"), I(2), I(6)}));
  t.AppendUnchecked(Row({T("b"), I(3), I(4)}));
  t.AppendUnchecked(Row({T("b"), I(4), I(5)}));
  t.AppendUnchecked(Row({T("c"), I(5), I(6)}));
  return t;
}

TEST(RepairPartitionTest, OneBlockPerKeyGroup) {
  sql::RepairClause clause;
  clause.key_columns = {"K"};
  auto blocks = RepairPartition(KeyedTable(), clause);
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  ASSERT_EQ(blocks->size(), 3u);
  EXPECT_EQ((*blocks)[0].choices.size(), 2u);
  EXPECT_EQ((*blocks)[1].choices.size(), 2u);
  EXPECT_EQ((*blocks)[2].choices.size(), 1u);
  // Uniform probabilities within each block.
  for (const auto& block : *blocks) {
    double total = 0;
    for (const auto& choice : block.choices) {
      EXPECT_EQ(choice.row_indices.size(), 1u);
      total += choice.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(RepairPartitionTest, WeightedProbabilities) {
  sql::RepairClause clause;
  clause.key_columns = {"K"};
  clause.weight_column = "W";
  auto blocks = RepairPartition(KeyedTable(), clause);
  ASSERT_TRUE(blocks.ok());
  // Key 'a': weights 2 and 6 -> 0.25 / 0.75.
  EXPECT_NEAR((*blocks)[0].choices[0].probability, 0.25, 1e-12);
  EXPECT_NEAR((*blocks)[0].choices[1].probability, 0.75, 1e-12);
}

TEST(RepairPartitionTest, NonPositiveWeightIsError) {
  Schema schema({Column("K", DataType::kText),
                 Column("W", DataType::kInteger)});
  Table t(schema);
  t.AppendUnchecked(Row({T("a"), I(0)}));
  sql::RepairClause clause;
  clause.key_columns = {"K"};
  clause.weight_column = "W";
  auto blocks = RepairPartition(t, clause);
  ASSERT_FALSE(blocks.ok());
  EXPECT_EQ(blocks.status().code(), StatusCode::kInvalidArgument);
}

TEST(RepairPartitionTest, NullWeightIsError) {
  Schema schema({Column("K", DataType::kText),
                 Column("W", DataType::kInteger)});
  Table t(schema);
  t.AppendUnchecked(Row({T("a"), N()}));
  sql::RepairClause clause;
  clause.key_columns = {"K"};
  clause.weight_column = "W";
  EXPECT_FALSE(RepairPartition(t, clause).ok());
}

TEST(RepairPartitionTest, EmptyTableYieldsNoBlocks) {
  sql::RepairClause clause;
  clause.key_columns = {"K"};
  auto blocks = RepairPartition(Table(KeyedTable().schema()), clause);
  ASSERT_TRUE(blocks.ok());
  EXPECT_TRUE(blocks->empty());
}

TEST(RepairPartitionTest, UnknownKeyColumnIsError) {
  sql::RepairClause clause;
  clause.key_columns = {"Nope"};
  EXPECT_EQ(RepairPartition(KeyedTable(), clause).status().code(),
            StatusCode::kNotFound);
}

TEST(ChoicePartitionTest, SingleBlockOnePartitionPerValue) {
  sql::ChoiceClause clause;
  clause.columns = {"K"};
  auto blocks = ChoicePartition(KeyedTable(), clause);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 1u);
  const PartitionBlock& block = (*blocks)[0];
  ASSERT_EQ(block.choices.size(), 3u);
  EXPECT_EQ(block.choices[0].row_indices.size(), 2u);  // 'a' tuples
  for (const auto& choice : block.choices) {
    EXPECT_NEAR(choice.probability, 1.0 / 3, 1e-12);
  }
}

TEST(ChoicePartitionTest, WeightedBySumOfPartitionWeights) {
  sql::ChoiceClause clause;
  clause.columns = {"K"};
  clause.weight_column = "W";
  auto blocks = ChoicePartition(KeyedTable(), clause);
  ASSERT_TRUE(blocks.ok());
  const PartitionBlock& block = (*blocks)[0];
  // Total weight 23; partitions a=8, b=9, c=6.
  EXPECT_NEAR(block.choices[0].probability, 8.0 / 23, 1e-12);
  EXPECT_NEAR(block.choices[1].probability, 9.0 / 23, 1e-12);
  EXPECT_NEAR(block.choices[2].probability, 6.0 / 23, 1e-12);
}

TEST(ChoicePartitionTest, EmptyRelationIsError) {
  sql::ChoiceClause clause;
  clause.columns = {"K"};
  auto blocks = ChoicePartition(Table(KeyedTable().schema()), clause);
  ASSERT_FALSE(blocks.ok());
  EXPECT_EQ(blocks.status().code(), StatusCode::kEmptyWorldSet);
}

TEST(ChoicePartitionTest, MultiColumnChoice) {
  sql::ChoiceClause clause;
  clause.columns = {"K", "V"};
  auto blocks = ChoicePartition(KeyedTable(), clause);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ((*blocks)[0].choices.size(), 5u) << "all (K,V) pairs distinct";
}

// ---- components ----

std::unique_ptr<sql::SelectStatement> ParseSelect(const std::string& text) {
  auto stmt = sql::Parser::ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return std::unique_ptr<sql::SelectStatement>(
      static_cast<sql::SelectStatement*>(stmt->release()));
}

Alternative MakeAlt(double p, const std::string& rel,
                    std::vector<Tuple> tuples) {
  Alternative alt;
  alt.probability = p;
  alt.tuples[rel] = std::move(tuples);
  return alt;
}

TEST(ComponentTest, ContributesToIgnoresEmptyContributions) {
  Component c;
  c.alternatives.push_back(MakeAlt(0.5, "r", {Row({I(1)})}));
  c.alternatives.push_back(MakeAlt(0.5, "r", {}));
  EXPECT_TRUE(c.ContributesTo("r"));
  EXPECT_FALSE(c.ContributesTo("s"));
  const ComponentHandle shared = ShareComponent(c);
  ASSERT_EQ(shared->ranges.size(), 1u);
  EXPECT_EQ(shared->ranges[0].first, "r");
}

TEST(ComponentTest, NormalizeRescalesToOne) {
  Component c;
  c.alternatives.push_back(MakeAlt(2.0, "r", {}));
  c.alternatives.push_back(MakeAlt(6.0, "r", {}));
  MAYBMS_EXPECT_OK(c.Normalize());
  EXPECT_NEAR(c.alternatives[0].probability, 0.25, 1e-12);
  EXPECT_NEAR(c.alternatives[1].probability, 0.75, 1e-12);

  Component zero;
  zero.alternatives.push_back(MakeAlt(0.0, "r", {}));
  EXPECT_EQ(zero.Normalize().code(), StatusCode::kEmptyWorldSet);
}

// A sub-product is never merged up front: its worlds are decoded one at a
// time (ChooseAlternatives) and flattened into one alternative only when
// a commit replaces the components (FlattenAlternatives).
TEST(ComponentTest, MergeComputesProduct) {
  Component a;
  a.alternatives.push_back(MakeAlt(0.25, "r", {Row({I(1)})}));
  a.alternatives.push_back(MakeAlt(0.75, "r", {Row({I(2)})}));
  Component b;
  b.alternatives.push_back(MakeAlt(0.5, "s", {Row({I(10)})}));
  b.alternatives.push_back(MakeAlt(0.5, "s", {Row({I(20)})}));

  ASSERT_EQ(ProductSize({&a, &b}), 4u);
  double total = 0;
  std::vector<const Alternative*> chosen;
  for (uint64_t i = 0; i < 4; ++i) {
    const double p = ChooseAlternatives({&a, &b}, i, &chosen);
    // Part 0 is the least significant digit of the world index.
    EXPECT_EQ(chosen[0], &a.alternatives[i % 2]);
    EXPECT_EQ(chosen[1], &b.alternatives[i / 2]);
    const Alternative flat = FlattenAlternatives(chosen, p, "");
    EXPECT_DOUBLE_EQ(flat.probability, p);
    total += flat.probability;
    EXPECT_EQ(flat.tuples.at("r").size(), 1u);
    EXPECT_EQ(flat.tuples.at("s").size(), 1u);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ComponentTest, MergeOfNothingIsTrivialChoice) {
  ASSERT_EQ(ProductSize({}), 1u);
  std::vector<const Alternative*> chosen;
  const double p = ChooseAlternatives({}, 0, &chosen);
  EXPECT_TRUE(chosen.empty());
  const Alternative flat = FlattenAlternatives(chosen, p, "");
  EXPECT_NEAR(flat.probability, 1.0, 1e-12);
  EXPECT_TRUE(flat.tuples.empty());
}

TEST(ComponentTest, MergeCapIsEnforced) {
  Component a;
  for (int i = 0; i < 10; ++i) a.alternatives.push_back(MakeAlt(0.1, "r", {}));
  EXPECT_EQ(ProductSize({&a, &a, &a}), 1000u);
  // Sizes beyond 2^64 saturate rather than wrap, so a cap comparison
  // can never mistake a huge product for a small one.
  EXPECT_EQ(ProductSize(std::vector<const Component*>(20, &a)),
            std::numeric_limits<uint64_t>::max());

  // The engine refuses a sub-product above its world cap.
  DecomposedWorldSet ws(/*max_worlds=*/100, /*threads=*/1);
  Table r(Schema({Column("K", DataType::kInteger),
                  Column("V", DataType::kInteger)}));
  for (int k = 0; k < 3; ++k) {
    for (int v = 0; v < 10; ++v) r.AppendUnchecked(Row({I(k), I(v)}));
  }
  MAYBMS_ASSERT_OK(ws.CreateBaseTable("r", r));
  MAYBMS_ASSERT_OK(ws.MaterializeSelect(
      "i", *ParseSelect("select * from r repair by key K")));
  ASSERT_EQ(ws.NumWorlds(), 1000u);
  auto sum = ws.EvaluateSelect(*ParseSelect("select conf, sum(V) from i"),
                               16);
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(sum.status().message().find(
                "statement world cap of 100 worlds exceeded"),
            std::string::npos)
      << sum.status().ToString();
}

TEST(ComponentTest, MergeConcatenatesSharedRelationContributions) {
  Component a;
  a.alternatives.push_back(MakeAlt(1.0, "r", {Row({I(1)})}));
  Component b;
  b.alternatives.push_back(MakeAlt(1.0, "r", {Row({I(2)})}));
  std::vector<const Alternative*> chosen;
  const double p = ChooseAlternatives({&a, &b}, 0, &chosen);
  EXPECT_EQ(FlattenAlternatives(chosen, p, "").tuples.at("r").size(), 2u);
  // A commit that replaces relation r skips its old contributions.
  EXPECT_EQ(FlattenAlternatives(chosen, p, "r").tuples.count("r"), 0u);
}

}  // namespace
}  // namespace maybms::worlds
