#include "src/metrics/experiment.h"

#include <gtest/gtest.h>

namespace bmeh {
namespace metrics {
namespace {

ExperimentConfig SmallConfig(Method method, workload::Distribution dist) {
  ExperimentConfig cfg;
  cfg.method = method;
  cfg.workload.distribution = dist;
  cfg.workload.seed = 1234;
  cfg.n = 3000;
  cfg.tail = 300;
  cfg.page_capacity = 8;
  return cfg;
}

TEST(ExperimentTest, MethodNames) {
  EXPECT_STREQ(MethodName(Method::kMdeh), "MDEH");
  EXPECT_STREQ(MethodName(Method::kMehTree), "MEH-tree");
  EXPECT_STREQ(MethodName(Method::kBmehTree), "BMEH-tree");
}

TEST(ExperimentTest, MakeIndexProducesEachScheme) {
  KeySchema schema(2, 31);
  EXPECT_EQ(MakeIndex(Method::kMdeh, schema, 8)->name(), "MDEH");
  EXPECT_EQ(MakeIndex(Method::kMehTree, schema, 8)->name(), "MEH-tree");
  EXPECT_EQ(MakeIndex(Method::kBmehTree, schema, 8)->name(), "BMEH-tree");
}

TEST(ExperimentTest, MeasuresAreSane) {
  for (auto method :
       {Method::kMdeh, Method::kMehTree, Method::kBmehTree}) {
    auto r = RunExperiment(
        SmallConfig(method, workload::Distribution::kUniform));
    SCOPED_TRACE(r.method);
    EXPECT_GE(r.lambda, 1.0);
    EXPECT_LE(r.lambda, 10.0);
    EXPECT_GE(r.lambda_prime, 1.0);
    EXPECT_GE(r.rho, r.lambda) << "an insert includes a search";
    EXPECT_GT(r.alpha, 0.4);
    EXPECT_LE(r.alpha, 1.0);
    EXPECT_GT(r.sigma, 0u);
    EXPECT_EQ(r.structure.records, 3000u);
    EXPECT_GT(r.rho_whole_run, 0.0);
  }
}

TEST(ExperimentTest, LoadFactorIdenticalAcrossMethods) {
  // §5: alpha depends only on the splitting policy, which all three
  // schemes share — the paper's tables show a single alpha row.
  auto m1 = RunExperiment(
      SmallConfig(Method::kMdeh, workload::Distribution::kUniform));
  auto m2 = RunExperiment(
      SmallConfig(Method::kMehTree, workload::Distribution::kUniform));
  auto m3 = RunExperiment(
      SmallConfig(Method::kBmehTree, workload::Distribution::kUniform));
  EXPECT_EQ(m1.structure.data_pages, m2.structure.data_pages);
  EXPECT_EQ(m2.structure.data_pages, m3.structure.data_pages);
  EXPECT_DOUBLE_EQ(m1.alpha, m3.alpha);
}

TEST(ExperimentTest, MdehExactMatchIsTwoReads) {
  auto r = RunExperiment(
      SmallConfig(Method::kMdeh, workload::Distribution::kNormal));
  EXPECT_DOUBLE_EQ(r.lambda, 2.0);
}

TEST(ExperimentTest, BmehDirectorySmallestUnderSkew) {
  auto mdeh = RunExperiment(
      SmallConfig(Method::kMdeh, workload::Distribution::kNormal));
  auto meh = RunExperiment(
      SmallConfig(Method::kMehTree, workload::Distribution::kNormal));
  auto bmeh = RunExperiment(
      SmallConfig(Method::kBmehTree, workload::Distribution::kNormal));
  EXPECT_LT(bmeh.sigma, mdeh.sigma);
  EXPECT_LT(bmeh.sigma, meh.sigma);
}

TEST(ExperimentTest, GrowthSamplingProducesMonotoneInsertCounts) {
  ExperimentConfig cfg =
      SmallConfig(Method::kBmehTree, workload::Distribution::kUniform);
  cfg.growth_sample_every = 500;
  auto r = RunExperiment(cfg);
  ASSERT_GE(r.growth.size(), 6u);
  for (size_t i = 1; i < r.growth.size(); ++i) {
    EXPECT_GT(r.growth[i].first, r.growth[i - 1].first);
    EXPECT_GE(r.growth[i].second, r.growth[i - 1].second)
        << "directory only grows during a pure-insert run";
  }
  EXPECT_EQ(r.growth.back().first, cfg.n);
  EXPECT_EQ(r.growth.back().second, r.sigma);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto a = RunExperiment(
      SmallConfig(Method::kBmehTree, workload::Distribution::kNormal));
  auto b = RunExperiment(
      SmallConfig(Method::kBmehTree, workload::Distribution::kNormal));
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_DOUBLE_EQ(a.lambda, b.lambda);
  EXPECT_DOUBLE_EQ(a.rho, b.rho);
}

TEST(ExperimentTest, ThreeDimensionalRun) {
  ExperimentConfig cfg =
      SmallConfig(Method::kBmehTree, workload::Distribution::kUniform);
  cfg.workload.dims = 3;
  auto r = RunExperiment(cfg);
  EXPECT_EQ(r.structure.records, 3000u);
  EXPECT_GT(r.sigma, 0u);
}


// The §5 protocol's exact access totals and directory sizes, for every
// scheme on the three table workloads (2-D uniform, 2-D normal, 3-D
// uniform) of Tables 2-4's b = 8 column.  λ, λ′, ρ and σ are
// ratios of these integers, so a change in how any walk charges an access
// fails here instead of only in a hand-diffed bench table.
TEST(ExperimentTest, PaperCountsDoNotChange) {
  struct Pinned {
    uint64_t dir_reads, dir_writes, data_reads, data_writes, sigma;
  };
  struct Case {
    workload::Distribution dist;
    int dims;
    Pinned pinned[3];  // MDEH, MEH-tree, BMEH-tree
  };
  const Case cases[] = {
      {workload::Distribution::kUniform,
       2,
       {{87979, 108993, 55162, 54424, 32768},
        {81882, 16123, 61348, 54424, 171584},
        {101995, 8987, 56431, 54805, 18496}}},
      {workload::Distribution::kNormal,
       2,
       {{1103772, 2374618, 55096, 54394, 1048576},
        {111338, 10455, 57613, 54394, 41088},
        {151241, 9867, 56743, 54846, 22848}}},
      {workload::Distribution::kUniform,
       3,
       {{87981, 118861, 55157, 54428, 32768},
        {81906, 16106, 61324, 54428, 170880},
        {108185, 9466, 56800, 55022, 20928}}},
  };
  const Method methods[] = {Method::kMdeh, Method::kMehTree,
                            Method::kBmehTree};
  for (const Case& c : cases) {
    for (int m = 0; m < 3; ++m) {
      ExperimentConfig cfg;
      cfg.method = methods[m];
      cfg.workload.distribution = c.dist;
      cfg.workload.dims = c.dims;
      cfg.workload.seed = 1986;
      cfg.n = 40000;
      cfg.tail = 4000;
      cfg.page_capacity = 8;
      const ExperimentResult r = RunExperiment(cfg);
      SCOPED_TRACE(std::string(workload::DistributionName(c.dist)) + " d=" +
                   std::to_string(c.dims) + " " + r.method);
      const Pinned& p = c.pinned[m];
      EXPECT_EQ(r.total_io.dir_reads, p.dir_reads);
      EXPECT_EQ(r.total_io.dir_writes, p.dir_writes);
      EXPECT_EQ(r.total_io.data_reads, p.data_reads);
      EXPECT_EQ(r.total_io.data_writes, p.data_writes);
      EXPECT_EQ(r.sigma, p.sigma);
    }
  }
}

}  // namespace
}  // namespace metrics
}  // namespace bmeh
