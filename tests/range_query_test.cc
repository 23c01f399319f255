// Partial-range retrieval (PRG_Search, §4.4) checked against a brute-force
// oracle for all three schemes, plus the access-count properties behind
// Theorem 4.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/bmeh_tree.h"
#include "src/metrics/experiment.h"
#include "tests/test_util.h"

namespace bmeh {
namespace {

std::vector<Record> Sorted(std::vector<Record> v) {
  std::sort(v.begin(), v.end(), [](const Record& a, const Record& b) {
    return a.key < b.key;
  });
  return v;
}

struct RangeCase {
  metrics::Method method;
  workload::Distribution dist;
  int b;
};

std::string CaseName(const ::testing::TestParamInfo<RangeCase>& info) {
  std::string name = metrics::MethodName(info.param.method);
  name += "_";
  name += workload::DistributionName(info.param.dist);
  name += "_b" + std::to_string(info.param.b);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class RangeQueryTest : public ::testing::TestWithParam<RangeCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, RangeQueryTest,
    ::testing::Values(
        RangeCase{metrics::Method::kMdeh, workload::Distribution::kUniform,
                  4},
        RangeCase{metrics::Method::kMdeh, workload::Distribution::kNormal,
                  8},
        RangeCase{metrics::Method::kMehTree,
                  workload::Distribution::kUniform, 4},
        RangeCase{metrics::Method::kMehTree,
                  workload::Distribution::kClustered, 8},
        RangeCase{metrics::Method::kBmehTree,
                  workload::Distribution::kUniform, 4},
        RangeCase{metrics::Method::kBmehTree,
                  workload::Distribution::kNormal, 8},
        RangeCase{metrics::Method::kBmehTree,
                  workload::Distribution::kClustered, 2}),
    CaseName);

TEST_P(RangeQueryTest, RandomRectanglesMatchOracle) {
  const RangeCase& param = GetParam();
  KeySchema schema(2, 31);
  auto index = metrics::MakeIndex(param.method, schema, param.b);
  workload::WorkloadSpec spec;
  spec.distribution = param.dist;
  spec.seed = 71;
  auto keys = workload::GenerateKeys(spec, 3000);
  testing::Oracle oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(index->Insert(keys[i], i).ok());
    oracle.Insert(keys[i], i);
  }
  Rng rng(72);
  for (int q = 0; q < 40; ++q) {
    RangePredicate pred(schema);
    for (int j = 0; j < 2; ++j) {
      uint32_t a = static_cast<uint32_t>(rng.Uniform(1u << 31));
      uint32_t b = static_cast<uint32_t>(rng.Uniform(1u << 31));
      if (a > b) std::swap(a, b);
      pred.Constrain(j, a, b);
    }
    std::vector<Record> got;
    ASSERT_TRUE(index->RangeSearch(pred, &got).ok());
    EXPECT_EQ(Sorted(got), oracle.Range(pred)) << pred.ToString();
  }
}

TEST_P(RangeQueryTest, PartialMatchQueries) {
  const RangeCase& param = GetParam();
  KeySchema schema(2, 31);
  auto index = metrics::MakeIndex(param.method, schema, param.b);
  workload::WorkloadSpec spec;
  spec.distribution = param.dist;
  spec.seed = 73;
  auto keys = workload::GenerateKeys(spec, 2000);
  testing::Oracle oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(index->Insert(keys[i], i).ok());
    oracle.Insert(keys[i], i);
  }
  Rng rng(74);
  for (int q = 0; q < 20; ++q) {
    // Constrain only dimension (q % 2): the other stays unbounded —
    // the paper's partial-range case with |S| < d.
    RangePredicate pred(schema);
    uint32_t a = static_cast<uint32_t>(rng.Uniform(1u << 31));
    uint32_t b = static_cast<uint32_t>(rng.Uniform(1u << 31));
    if (a > b) std::swap(a, b);
    pred.Constrain(q % 2, a, b);
    std::vector<Record> got;
    ASSERT_TRUE(index->RangeSearch(pred, &got).ok());
    EXPECT_EQ(Sorted(got), oracle.Range(pred));
  }
}

TEST_P(RangeQueryTest, ExactMatchViaRange) {
  const RangeCase& param = GetParam();
  KeySchema schema(2, 31);
  auto index = metrics::MakeIndex(param.method, schema, param.b);
  workload::WorkloadSpec spec;
  spec.distribution = param.dist;
  spec.seed = 75;
  auto keys = workload::GenerateKeys(spec, 500);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(index->Insert(keys[i], i).ok());
  }
  for (int q = 0; q < 25; ++q) {
    RangePredicate pred(schema);
    pred.ConstrainExact(0, keys[q * 17].component(0));
    pred.ConstrainExact(1, keys[q * 17].component(1));
    std::vector<Record> got;
    ASSERT_TRUE(index->RangeSearch(pred, &got).ok());
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].key, keys[q * 17]);
    EXPECT_EQ(got[0].payload, static_cast<uint64_t>(q * 17));
  }
}

TEST_P(RangeQueryTest, FullDomainQueryReturnsEverything) {
  const RangeCase& param = GetParam();
  KeySchema schema(2, 31);
  auto index = metrics::MakeIndex(param.method, schema, param.b);
  workload::WorkloadSpec spec;
  spec.distribution = param.dist;
  spec.seed = 76;
  auto keys = workload::GenerateKeys(spec, 1500);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(index->Insert(keys[i], i).ok());
  }
  std::vector<Record> got;
  ASSERT_TRUE(index->RangeSearch(RangePredicate(schema), &got).ok());
  EXPECT_EQ(got.size(), keys.size());
}

TEST(RangeQueryTest, EmptyPredicateReturnsNothing) {
  KeySchema schema(2, 31);
  BmehTree tree(schema, TreeOptions::Make(2, 4));
  ASSERT_TRUE(tree.Insert(PseudoKey({1u, 1u}), 0).ok());
  RangePredicate pred(schema);
  pred.Constrain(0, 10, 20);
  pred.Constrain(0, 30, 40);  // intersection empty
  EXPECT_TRUE(pred.Empty());
  std::vector<Record> got;
  ASSERT_TRUE(tree.RangeSearch(pred, &got).ok());
  EXPECT_TRUE(got.empty());
}

TEST(RangeQueryTest, EmptyTreeRangeIsEmpty) {
  KeySchema schema(2, 31);
  BmehTree tree(schema, TreeOptions::Make(2, 4));
  std::vector<Record> got;
  ASSERT_TRUE(tree.RangeSearch(RangePredicate(schema), &got).ok());
  EXPECT_TRUE(got.empty());
}

TEST(RangeQueryTest, Theorem4AccessBound) {
  // The walk visits each covering page once and costs O(l * n_R) node
  // accesses: nodes_visited <= l * leaf_groups (+ root).
  KeySchema schema(2, 31);
  BmehTree tree(schema, TreeOptions::Make(2, 4));
  auto keys =
      workload::GenerateKeys(workload::WorkloadSpec{.seed = 77}, 6000);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  Rng rng(78);
  for (int q = 0; q < 25; ++q) {
    RangePredicate pred(schema);
    for (int j = 0; j < 2; ++j) {
      uint32_t a = static_cast<uint32_t>(rng.Uniform(1u << 31));
      uint32_t b = static_cast<uint32_t>(rng.Uniform(1u << 31));
      if (a > b) std::swap(a, b);
      pred.Constrain(j, a, b);
    }
    std::vector<Record> got;
    hashdir::RangeWalkStats stats;
    ASSERT_TRUE(tree.RangeSearchWithStats(pred, &got, &stats).ok());
    EXPECT_LE(stats.pages_visited, stats.leaf_groups)
        << "each covering cell accessed at most once";
    EXPECT_LE(stats.max_level, static_cast<uint64_t>(tree.height()));
    EXPECT_LE(stats.nodes_visited,
              static_cast<uint64_t>(tree.height()) * stats.leaf_groups + 1)
        << "Theorem 4: O(l * n_R) accesses";
  }
}

TEST(RangeQueryTest, SharedPointersAreVisitedOnce) {
  // A page whose group spans several directory cells must be scanned once
  // even when the query box covers all of its cells.
  KeySchema schema(2, 8);
  BmehTree tree(schema, TreeOptions::Make(2, 8));
  // A handful of keys: groups stay shallow, pointers shared widely.
  for (uint32_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(tree.Insert(PseudoKey({i * 20, i * 17}), i).ok());
  }
  std::vector<Record> got;
  hashdir::RangeWalkStats stats;
  ASSERT_TRUE(tree.RangeSearchWithStats(RangePredicate(schema), &got,
                                        &stats)
                  .ok());
  EXPECT_EQ(got.size(), 12u);
  EXPECT_EQ(stats.pages_visited, tree.Stats().data_pages);
}


// Theorem 4's counts and the logical I/O of a fixed, seeded query set
// (boxes and one-dimension slabs), pinned exactly: a change in how the
// range walk charges an access fails here.
TEST(RangeQueryTest, WalkCountsDoNotChange) {
  KeySchema schema(2, 31);
  BmehTree tree(schema, TreeOptions::Make(2, 8));
  auto keys =
      workload::GenerateKeys(workload::WorkloadSpec{.seed = 79}, 5000);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  Rng rng(80);
  const IoStats before = tree.io()->stats();
  hashdir::RangeWalkStats total;
  uint64_t results = 0;
  for (int q = 0; q < 40; ++q) {
    RangePredicate pred(schema);
    for (int j = 0; j < 2; ++j) {
      if (q % 4 == 3 && j == 1) continue;  // A slab: dimension 1 open.
      uint32_t a = static_cast<uint32_t>(rng.Uniform(1u << 31));
      const uint32_t len = static_cast<uint32_t>(rng.Uniform(1u << 28));
      const uint32_t b = a > (1u << 31) - 1 - len ? (1u << 31) - 1 : a + len;
      pred.Constrain(j, a, b);
    }
    std::vector<Record> got;
    hashdir::RangeWalkStats stats;
    ASSERT_TRUE(tree.RangeSearchWithStats(pred, &got, &stats).ok());
    results += got.size();
    total.nodes_visited += stats.nodes_visited;
    total.cells_scanned += stats.cells_scanned;
    total.leaf_groups += stats.leaf_groups;
    total.pages_visited += stats.pages_visited;
    total.max_level += stats.max_level;
  }
  const IoStats io = tree.io()->stats() - before;
  EXPECT_EQ(results, 3874u);
  EXPECT_EQ(total.nodes_visited, 153u);
  EXPECT_EQ(total.cells_scanned, 2127u);
  EXPECT_EQ(total.leaf_groups, 1125u);
  EXPECT_EQ(total.pages_visited, 1125u);
  EXPECT_EQ(total.max_level, 80u);
  EXPECT_EQ(io.dir_reads, 113u);
  EXPECT_EQ(io.dir_writes, 0u);
  EXPECT_EQ(io.data_reads, 1125u);
  EXPECT_EQ(io.data_writes, 0u);
}

}  // namespace
}  // namespace bmeh
