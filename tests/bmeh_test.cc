#include "src/core/bmeh_tree.h"

#include <gtest/gtest.h>

#include <array>

#include "src/common/epoch.h"
#include "tests/test_util.h"

namespace bmeh {
namespace {

using testing::DrainAndCheckEmpty;
using testing::FuzzAgainstOracle;

std::array<uint64_t, 9> Counts(const BmehMutationStats& s) {
  return {s.page_splits,   s.node_doublings, s.node_splits,
          s.forced_splits, s.new_roots,      s.page_merges,
          s.node_halvings, s.node_merges,    s.root_collapses};
}

bool Splits(const BmehMutationStats& a, const BmehMutationStats& b) {
  return a.page_splits != b.page_splits ||
         a.node_doublings != b.node_doublings ||
         a.node_splits != b.node_splits || a.new_roots != b.new_roots;
}

TEST(BmehTreeTest, EmptyIndexBasics) {
  BmehTree tree(KeySchema(2, 16), TreeOptions::Make(2, 4));
  EXPECT_EQ(tree.name(), "BMEH-tree");
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_TRUE(tree.Search(PseudoKey({1u, 2u})).status().IsKeyError());
  EXPECT_TRUE(tree.Delete(PseudoKey({1u, 2u})).IsKeyError());
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(BmehTreeTest, InsertSearchDeleteSingle) {
  BmehTree tree(KeySchema(2, 16), TreeOptions::Make(2, 4));
  ASSERT_TRUE(tree.Insert(PseudoKey({5u, 6u}), 99).ok());
  auto r = tree.Search(PseudoKey({5u, 6u}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 99u);
  EXPECT_TRUE(tree.Insert(PseudoKey({5u, 6u}), 1).IsAlreadyExists());
  ASSERT_TRUE(tree.Delete(PseudoKey({5u, 6u})).ok());
  EXPECT_TRUE(tree.Search(PseudoKey({5u, 6u})).status().IsKeyError());
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.Stats().data_pages, 0u);
}

TEST(BmehTreeTest, GrowsTowardTheRoot) {
  // Unlike the MEH-tree, the BMEH-tree's root CHANGES when it splits.
  BmehTree tree(KeySchema(2, 16), TreeOptions::Make(2, 2, /*phi=*/2));
  const uint32_t root_before = tree.root_id();
  workload::WorkloadSpec spec;
  spec.width = 16;
  spec.seed = 9;
  auto keys = workload::GenerateKeys(spec, 300);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_NE(tree.root_id(), root_before) << "root must have split upward";
  EXPECT_GT(tree.height(), 1);
  EXPECT_GT(tree.mutation_stats().new_roots, 0u);
  EXPECT_GT(tree.mutation_stats().node_splits, 0u);
}

TEST(BmehTreeTest, PerfectBalanceIsMaintained) {
  // Validate() checks that every page hangs at exactly level `height()`;
  // run it through a growth that forces several node splits.
  BmehTree tree(KeySchema(2, 31), TreeOptions::Make(2, 2, /*phi=*/4));
  workload::WorkloadSpec spec;
  spec.seed = 10;
  workload::KeyGenerator gen(spec);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree.Insert(gen.Next(), i).ok());
    if (i % 200 == 199) {
      ASSERT_TRUE(tree.Validate().ok()) << "after insert " << i;
    }
  }
  EXPECT_GE(tree.height(), 3);
}

TEST(BmehTreeTest, HeightBoundedByCeilWOverPhi) {
  // l <= ceil(total addressing bits / phi) + 1 slack never needed: the
  // paper's Section 3.1 bound.
  BmehTree tree(KeySchema(2, 31), TreeOptions::Make(2, 8));
  auto keys = workload::GenerateKeys(workload::WorkloadSpec{.seed = 11},
                                     20000);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_LE(tree.height(), (62 + 5) / 6);
}

TEST(BmehTreeTest, ExactMatchCostIsHeightPlusOne) {
  BmehTree tree(KeySchema(2, 31), TreeOptions::Make(2, 8));
  auto keys = workload::GenerateKeys(workload::WorkloadSpec{.seed = 12},
                                     8000);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  // Root pinned: reads = (height - 1) directory nodes + 1 data page.
  for (int probe = 0; probe < 50; ++probe) {
    const IoStats before = tree.io_stats();
    ASSERT_TRUE(tree.Search(keys[probe * 100]).ok());
    const IoStats delta = tree.io_stats() - before;
    EXPECT_EQ(delta.reads(), static_cast<uint64_t>(tree.height()))
        << "(height-1) directory reads + 1 data read";
  }
}

TEST(BmehTreeTest, AdversarialCommonPrefixStaysBalancedAndSmall) {
  // The §3 "noise effect": a burst of keys differing only in low-order
  // bits.  The BMEH directory must stay near-linear in the data while
  // remaining perfectly balanced.
  KeySchema schema(2, 31);
  BmehTree tree(schema, TreeOptions::Make(2, 2));
  workload::WorkloadSpec spec;
  spec.distribution = workload::Distribution::kAdversarialPrefix;
  spec.adversarial_free_bits = 8;
  spec.seed = 13;
  auto keys = workload::GenerateKeys(spec, 1000);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  ASSERT_TRUE(tree.Validate().ok());
  const auto stats = tree.Stats();
  EXPECT_LT(stats.directory_entries, 40 * stats.data_pages)
      << "directory stays proportional to the data under skew";
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Search(keys[i]).ok());
  }
}

TEST(BmehTreeTest, ForcedSplitsHappenAndPreserveCorrectness) {
  // Drive a workload that concentrates splits on one dimension region so
  // node splits encounter spanning (h_m = 0) groups.
  KeySchema schema(2, 31);
  BmehTree tree(schema, TreeOptions::Make(2, 2, /*phi=*/4));
  Rng rng(14);
  std::vector<PseudoKey> keys;
  for (int i = 0; i < 1500; ++i) {
    // Dimension 0 varies wildly; dimension 1 stays in a narrow band, so
    // groups rarely split along dim 1 and spanning groups arise when a
    // node must split along it.
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(1u << 31));
    const uint32_t b =
        static_cast<uint32_t>((1u << 30) + rng.Uniform(1u << 12));
    PseudoKey key({a, b});
    if (tree.Insert(key, i).ok()) keys.push_back(key);
    if (i % 250 == 249) {
      ASSERT_TRUE(tree.Validate().ok());
    }
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_GT(tree.mutation_stats().forced_splits, 0u)
      << "the workload should exercise the K-D-B-style force split";
  for (const PseudoKey& key : keys) {
    ASSERT_TRUE(tree.Search(key).ok());
  }
}

TEST(BmehTreeTest, Theorem2SplitBound) {
  // Worst-case node splits for one insertion <= l(l-1)/2 * phi + l.
  KeySchema schema(2, 20);
  BmehTree tree(schema, TreeOptions::Make(2, 2, /*phi=*/4));
  workload::WorkloadSpec spec;
  spec.width = 20;
  spec.distribution = workload::Distribution::kAdversarialPrefix;
  spec.adversarial_free_bits = 4;
  spec.seed = 15;
  workload::KeyGenerator gen(spec);
  const int phi = 4;
  const int l = (40 + phi - 1) / phi;  // ceil(w_total / phi)
  const uint64_t bound = static_cast<uint64_t>(l) * (l - 1) / 2 * phi + l;
  for (int i = 0; i < 250; ++i) {
    tree.ResetMutationStats();
    ASSERT_TRUE(tree.Insert(gen.Next(), i).ok());
    EXPECT_LE(tree.mutation_stats().node_splits, bound)
        << "Theorem 2 violated at insert " << i;
  }
  ASSERT_TRUE(tree.Validate().ok());
}

TEST(BmehTreeTest, FuzzUniform) {
  BmehTree tree(KeySchema(2, 31), TreeOptions::Make(2, 4));
  workload::WorkloadSpec spec;
  spec.seed = 301;
  FuzzAgainstOracle(&tree, spec, 1500, 250, 0.3, 51);
}

TEST(BmehTreeTest, FuzzNormal3d) {
  BmehTree tree(KeySchema(3, 31), TreeOptions::Make(3, 8));
  workload::WorkloadSpec spec;
  spec.distribution = workload::Distribution::kNormal;
  spec.dims = 3;
  spec.seed = 302;
  FuzzAgainstOracle(&tree, spec, 1200, 300, 0.25, 52);
}

TEST(BmehTreeTest, FuzzClusteredTinyPagesTinyNodes) {
  BmehTree tree(KeySchema(2, 31), TreeOptions::Make(2, 1, /*phi=*/2));
  workload::WorkloadSpec spec;
  spec.distribution = workload::Distribution::kClustered;
  spec.cluster_count = 4;
  spec.seed = 303;
  FuzzAgainstOracle(&tree, spec, 900, 150, 0.35, 53);
}

TEST(BmehTreeTest, FuzzAdversarial) {
  BmehTree tree(KeySchema(2, 24), TreeOptions::Make(2, 2));
  workload::WorkloadSpec spec;
  spec.width = 24;
  spec.distribution = workload::Distribution::kAdversarialPrefix;
  spec.adversarial_free_bits = 7;
  spec.seed = 304;
  FuzzAgainstOracle(&tree, spec, 800, 100, 0.3, 54);
}

TEST(BmehTreeTest, FuzzOneDimensional) {
  BmehTree tree(KeySchema(1, 31), TreeOptions::Make(1, 4, /*phi=*/3));
  workload::WorkloadSpec spec;
  spec.dims = 1;
  spec.seed = 305;
  FuzzAgainstOracle(&tree, spec, 1000, 200, 0.3, 55);
}

TEST(BmehTreeTest, FuzzFiveDimensional) {
  BmehTree tree(KeySchema(5, 16), TreeOptions::Make(5, 8, /*phi=*/5));
  workload::WorkloadSpec spec;
  spec.dims = 5;
  spec.width = 16;
  spec.seed = 306;
  FuzzAgainstOracle(&tree, spec, 800, 200, 0.25, 56);
}

TEST(BmehTreeTest, DrainToEmptyCollapsesToSingleRoot) {
  BmehTree tree(KeySchema(2, 31), TreeOptions::Make(2, 2, /*phi=*/4));
  auto keys =
      workload::GenerateKeys(workload::WorkloadSpec{.seed = 16}, 2000);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  EXPECT_GT(tree.height(), 2);
  DrainAndCheckEmpty(&tree, keys, 61);
  EXPECT_EQ(tree.height(), 1) << "root collapses should peel all levels";
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_GT(tree.mutation_stats().root_collapses, 0u);
  EXPECT_GT(tree.mutation_stats().node_merges, 0u);
}

TEST(BmehTreeTest, GrowShrinkGrowCycles) {
  BmehTree tree(KeySchema(2, 31), TreeOptions::Make(2, 4));
  workload::WorkloadSpec spec;
  spec.seed = 17;
  workload::KeyGenerator gen(spec);
  std::vector<PseudoKey> keys;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 700; ++i) {
      PseudoKey key = gen.Next();
      ASSERT_TRUE(tree.Insert(key, i).ok());
      keys.push_back(key);
    }
    ASSERT_TRUE(tree.Validate().ok());
    // Delete half.
    for (int i = 0; i < 350; ++i) {
      ASSERT_TRUE(tree.Delete(keys.back()).ok());
      keys.pop_back();
    }
    ASSERT_TRUE(tree.Validate().ok());
  }
  EXPECT_EQ(tree.Stats().records, keys.size());
}

TEST(BmehTreeTest, MergeOnDeleteDisabled) {
  TreeOptions opts = TreeOptions::Make(2, 4);
  opts.merge_on_delete = false;
  BmehTree tree(KeySchema(2, 31), opts);
  auto keys =
      workload::GenerateKeys(workload::WorkloadSpec{.seed = 18}, 500);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  for (const auto& key : keys) {
    ASSERT_TRUE(tree.Delete(key).ok());
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.Stats().records, 0u);
  EXPECT_EQ(tree.Stats().data_pages, 0u) << "empty pages dropped eagerly";
}

TEST(BmehTreeTest, ToDotMentionsNodesAndPages) {
  BmehTree tree(KeySchema(2, 8), TreeOptions::Make(2, 2));
  ASSERT_TRUE(tree.Insert(PseudoKey({1u, 2u}), 0).ok());
  ASSERT_TRUE(tree.Insert(PseudoKey({200u, 100u}), 1).ok());
  const std::string dot = tree.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0"), std::string::npos);
  EXPECT_NE(dot.find("p0"), std::string::npos);
}

TEST(BmehTreeTest, NodeCapRefusalLeavesTreeIntact) {
  // A balanced node split force-splits every spanning child recursively;
  // the whole cascade's node demand is checked against max_nodes BEFORE
  // the first structural change.  A CapacityError must therefore leave
  // the tree exactly as it was: valid, balanced, cap respected, every
  // acknowledged key served.
  TreeOptions options = TreeOptions::Make(2, 2, /*phi=*/4);
  options.max_nodes = 12;  // tiny, so the cap bites mid-growth
  BmehTree tree(KeySchema(2, 31), options);
  auto keys =
      workload::GenerateKeys(workload::WorkloadSpec{.seed = 77}, 3000);
  std::vector<size_t> acked;
  bool capped = false;
  for (size_t i = 0; i < keys.size() && !capped; ++i) {
    Status st = tree.Insert(keys[i], i);
    if (st.ok()) {
      acked.push_back(i);
    } else if (!st.IsAlreadyExists()) {
      ASSERT_TRUE(st.IsCapacityError()) << st;
      capped = true;
    }
  }
  ASSERT_TRUE(capped) << "a 12-node cap must refuse some insert";
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_LE(tree.node_count(), options.max_nodes);
  for (size_t i : acked) {
    auto r = tree.Search(keys[i]);
    ASSERT_TRUE(r.ok()) << "acknowledged key lost after capacity refusal";
    EXPECT_EQ(*r, i);
  }
  // The refusal is not sticky: deletes still work at the cap and make
  // room for further growth.
  for (size_t i : acked) {
    ASSERT_TRUE(tree.Delete(keys[i]).ok());
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_TRUE(tree.Insert(keys[0], 0).ok());
}

TEST(BmehTreeTest, QuadtreeShapeWithXiOne) {
  // xi = (1,1): every node is a 2x2 quadtree split (paper §6).
  BmehTree tree(KeySchema(2, 16), TreeOptions::Make(2, 4, /*phi=*/2));
  auto keys = workload::GenerateKeys(
      workload::WorkloadSpec{.width = 16, .seed = 19}, 1000);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  ASSERT_TRUE(tree.Validate().ok());
  tree.nodes().ForEach([&](uint32_t, const hashdir::DirNode& node) {
    EXPECT_LE(node.entry_count(), 4u);
  });
}

TEST(BmehTreeTest, CommitRetiresOnlyWhatItChanges) {
  // Under copy-on-write, a commit republishes (and retires the original
  // of) every object it Mutates.  The delete-time tidy pass only reads the
  // groups it inspects, so a Delete that merges, drops and halves nothing
  // copies just the page it removes the record from, and leaves the root
  // unpublished; the Put that restores the key copies one object too.
  epoch::EpochManager mgr;
  BmehTree tree(KeySchema(2, 31), TreeOptions::Make(2, 4));
  tree.EnableConcurrentReads(&mgr);
  auto keys =
      workload::GenerateKeys(workload::WorkloadSpec{.seed = 23}, 3000);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  ASSERT_GT(tree.height(), 1);
  int checked_deletes = 0;
  int checked_puts = 0;
  for (size_t i = 0; i < keys.size(); i += 15) {
    const BmehMutationStats before = tree.mutation_stats();
    const uint64_t pages = tree.Stats().data_pages;
    const uint64_t retired = mgr.Stats().retired_total;
    const uint32_t root = tree.root_id();
    const uint64_t root_version = tree.nodes().VersionOf(root);
    ASSERT_TRUE(tree.Delete(keys[i]).ok());
    if (Counts(tree.mutation_stats()) == Counts(before) &&
        tree.Stats().data_pages == pages) {
      ++checked_deletes;
      EXPECT_EQ(mgr.Stats().retired_total - retired, 1u)
          << "delete of key " << i;
      EXPECT_EQ(tree.root_id(), root);
      EXPECT_EQ(tree.nodes().VersionOf(root), root_version)
          << "delete of key " << i << " republished the root";
    }

    const BmehMutationStats before_put = tree.mutation_stats();
    const uint64_t retired_put = mgr.Stats().retired_total;
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
    if (!Splits(before_put, tree.mutation_stats())) {
      ++checked_puts;
      EXPECT_EQ(mgr.Stats().retired_total - retired_put, 1u)
          << "put of key " << i;
    }
  }
  EXPECT_GE(checked_deletes, 150);
  EXPECT_GE(checked_puts, 150);
  ASSERT_TRUE(tree.Validate().ok());
}

TEST(BmehTreeTest, CowModeBuildsTheSameTreeAsDirectMode) {
  // The copy-on-write tree reads through Get and copies lazily; every
  // merge, drop and halving decision must still be the one the in-place
  // tree makes.  Ids are not compared: a scope defers id recycling.
  epoch::EpochManager mgr;
  BmehTree cow(KeySchema(2, 31), TreeOptions::Make(2, 4));
  BmehTree direct(KeySchema(2, 31), TreeOptions::Make(2, 4));
  cow.EnableConcurrentReads(&mgr);
  auto expect_same = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(Counts(cow.mutation_stats()), Counts(direct.mutation_stats()));
    const IndexStructureStats a = cow.Stats();
    const IndexStructureStats b = direct.Stats();
    EXPECT_EQ(a.directory_entries, b.directory_entries);
    EXPECT_EQ(a.directory_entries_used, b.directory_entries_used);
    EXPECT_EQ(a.directory_nodes, b.directory_nodes);
    EXPECT_EQ(a.directory_levels, b.directory_levels);
    EXPECT_EQ(a.data_pages, b.data_pages);
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(cow.PageFillHistogram(), direct.PageFillHistogram());
    EXPECT_EQ(cow.height(), direct.height());
    const IoStats ia = cow.io_stats();
    const IoStats ib = direct.io_stats();
    EXPECT_EQ(ia.dir_reads, ib.dir_reads);
    EXPECT_EQ(ia.dir_writes, ib.dir_writes);
    EXPECT_EQ(ia.data_reads, ib.data_reads);
    EXPECT_EQ(ia.data_writes, ib.data_writes);
  };
  auto keys =
      workload::GenerateKeys(workload::WorkloadSpec{.seed = 24}, 3000);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(cow.Insert(keys[i], i).ok());
    ASSERT_TRUE(direct.Insert(keys[i], i).ok());
  }
  expect_same("after the inserts");
  Rng rng(25);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(cow.Delete(keys[i]).ok());
    ASSERT_TRUE(direct.Delete(keys[i]).ok());
    if (i % 500 == 499) expect_same("during the deletes");
  }
  expect_same("after the deletes");
  EXPECT_EQ(cow.height(), 1);
  ASSERT_TRUE(cow.Validate().ok());
}

}  // namespace
}  // namespace bmeh
