#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "data/synthetic.hpp"
#include "learners/decision_tree.hpp"
#include "learners/knn.hpp"
#include "learners/logistic.hpp"
#include "learners/naive_bayes.hpp"
#include "learners/pattern_ensemble.hpp"
#include "obs/obs.hpp"
#include "tree_oracle.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace iotml::learners {
namespace {

using data::Dataset;
using data::make_phone_fleet;
using data::make_phone_fleet_paper;

/// Numeric 2-blob dataset in Dataset form.
Dataset numeric_blobs(std::size_t n, double separation, Rng& rng) {
  data::Samples s = data::make_blobs(n, 2, separation, 1.0, rng);
  Dataset ds;
  auto& x0 = ds.add_numeric_column("x0");
  auto& x1 = ds.add_numeric_column("x1");
  for (std::size_t i = 0; i < n; ++i) {
    x0.push_numeric(s.x(i, 0));
    x1.push_numeric(s.x(i, 1));
  }
  ds.set_labels(s.y);
  return ds;
}

/// Randomly knock out cells.
void inject_missing(Dataset& ds, double rate, Rng& rng) {
  for (std::size_t f = 0; f < ds.num_columns(); ++f) {
    for (std::size_t r = 0; r < ds.rows(); ++r) {
      if (rng.bernoulli(rate)) ds.column(f).set_missing(r);
    }
  }
}

// ---- DecisionTree ------------------------------------------------------------

TEST(DecisionTreeTest, LearnsPhoneFleetConcept) {
  Rng rng(1);
  Dataset train = make_phone_fleet(400, 0.0, rng);
  Dataset test = make_phone_fleet(200, 0.0, rng);
  DecisionTree tree;
  tree.fit(train);
  EXPECT_GE(tree.accuracy(test), 0.98);
}

TEST(DecisionTreeTest, LearnsNumericThresholds) {
  Rng rng(2);
  Dataset train = numeric_blobs(300, 6.0, rng);
  Dataset test = numeric_blobs(150, 6.0, rng);
  DecisionTree tree;
  tree.fit(train);
  EXPECT_GE(tree.accuracy(test), 0.95);
}

TEST(DecisionTreeTest, PerfectFitOnPaperTable) {
  Dataset ds = make_phone_fleet_paper();
  DecisionTree tree(DecisionTreeParams{.min_samples_leaf = 1});
  tree.fit(ds);
  EXPECT_DOUBLE_EQ(tree.accuracy(ds), 1.0);
}

TEST(DecisionTreeTest, DepthLimitRespected) {
  Rng rng(3);
  Dataset train = numeric_blobs(200, 2.0, rng);
  DecisionTree stump(DecisionTreeParams{.max_depth = 1});
  stump.fit(train);
  EXPECT_LE(stump.depth(), 2u);  // root + leaves
  EXPECT_LE(stump.node_count(), 4u);
}

TEST(DecisionTreeTest, HandlesMissingAtTrainAndTest) {
  Rng rng(4);
  Dataset train = make_phone_fleet(500, 0.0, rng);
  Dataset test = make_phone_fleet(200, 0.0, rng);
  inject_missing(train, 0.15, rng);
  inject_missing(test, 0.15, rng);
  for (auto policy : {MissingSplitPolicy::kMajorityBranch, MissingSplitPolicy::kOwnBranch}) {
    DecisionTree tree(DecisionTreeParams{.missing = policy});
    tree.fit(train);
    EXPECT_GE(tree.accuracy(test), 0.75);
  }
}

TEST(DecisionTreeTest, UnseenCategoryFallsBackToMajority) {
  Dataset train;
  auto& c = train.add_categorical_column("c");
  c.push_category("a");
  c.push_category("a");
  c.push_category("b");
  c.push_category("b");
  train.set_labels({1, 1, 0, 0});
  DecisionTree tree(DecisionTreeParams{.min_samples_leaf = 1});
  tree.fit(train);

  Dataset test;
  auto& tc = test.add_categorical_column("c");
  tc.push_category("zzz");  // never seen
  test.set_labels({0});
  EXPECT_NO_THROW(tree.predict_row(test, 0));
}

TEST(DecisionTreeTest, Validation) {
  DecisionTree tree;
  Dataset unlabeled;
  unlabeled.add_numeric_column("x").push_numeric(1.0);
  EXPECT_THROW(tree.fit(unlabeled), InvalidArgument);
  EXPECT_THROW(DecisionTree(DecisionTreeParams{.max_depth = 0}), InvalidArgument);
  Dataset probe = make_phone_fleet_paper();
  EXPECT_THROW(tree.predict_row(probe, 0), InvalidArgument);  // not fitted
}

/// How a random numeric column draws its values.
enum class ValueShape {
  kGrid,     ///< a few small integers and both signed zeros: many ties
  kNormal,   ///< continuous, almost surely distinct
  kUlp,      ///< a base value plus 0..5 ulps: midpoints that round to `hi`
  kExtreme,  ///< near-overflow magnitudes and infinities
};

double draw_value(ValueShape shape, double base, Rng& rng) {
  switch (shape) {
    case ValueShape::kGrid: {
      const int v = rng.uniform_int(-2, 2);
      return v == 0 && rng.bernoulli(0.5) ? -0.0 : static_cast<double>(v);
    }
    case ValueShape::kNormal:
      return rng.normal(0.0, 3.0);
    case ValueShape::kUlp: {
      double v = base;
      for (int k = rng.uniform_int(0, 5); k > 0; --k) {
        v = std::nextafter(v, std::numeric_limits<double>::infinity());
      }
      return v;
    }
    case ValueShape::kExtreme: {
      constexpr double kBig = std::numeric_limits<double>::max();
      constexpr double kInf = std::numeric_limits<double>::infinity();
      const double picks[] = {-kInf, -kBig, -0.75 * kBig, -1.0, 0.0,
                              0.5 * kBig, 0.9 * kBig, kBig, kInf};
      return picks[rng.index(std::size(picks))];
    }
  }
  return 0.0;
}

/// Seeded random dataset for the oracle comparison: 1-5 numeric and
/// categorical features, missing cells, categories that no row uses, and
/// non-contiguous labels that depend on the first feature (so trees grow)
/// plus label noise (so they stay impure). Duplicated columns give tied
/// gains across features.
Dataset random_tree_dataset(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 2 + rng.index(180);
  const std::size_t features = 1 + rng.index(5);
  const double missing_rate = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 0.4);
  const std::vector<int> label_pool{0, 3, 7, 1000, 42, 99999};
  const std::size_t num_labels = 2 + rng.index(label_pool.size() - 1);

  Dataset ds;
  for (std::size_t f = 0; f < features; ++f) {
    const std::string name = "f" + std::to_string(f);
    if (f > 0 && rng.bernoulli(0.15)) {
      // Copy an earlier column cell for cell: every gain ties with it.
      const data::Column& src = ds.column(rng.index(f));
      data::Column& dst = src.type() == data::ColumnType::kNumeric
                              ? ds.add_numeric_column(name)
                              : ds.add_categorical_column(name);
      for (std::size_t r = 0; r < n; ++r) {
        if (src.is_missing(r)) {
          dst.push_missing();
        } else if (src.type() == data::ColumnType::kNumeric) {
          dst.push_numeric(src.numeric(r));
        } else {
          dst.push_category(src.category_label(r));
        }
      }
      continue;
    }
    if (rng.bernoulli(0.35)) {
      data::Column& col = ds.add_categorical_column(name);
      const std::size_t used = 1 + rng.index(4);
      // Intern categories no row draws, some ahead of the used ones.
      const std::size_t unused = rng.index(3);
      for (std::size_t k = 0; k < unused; ++k) col.intern("unused" + std::to_string(k));
      for (std::size_t r = 0; r < n; ++r) {
        if (rng.bernoulli(missing_rate)) {
          col.push_missing();
        } else {
          col.push_category("c" + std::to_string(rng.index(used)));
        }
      }
      col.intern("never");
    } else {
      data::Column& col = ds.add_numeric_column(name);
      const auto shape = static_cast<ValueShape>(rng.index(4));
      const double base = rng.uniform(-10.0, 10.0);
      for (std::size_t r = 0; r < n; ++r) {
        if (rng.bernoulli(missing_rate)) {
          col.push_missing();
        } else {
          col.push_numeric(draw_value(shape, base, rng));
        }
      }
    }
  }

  // Labels: a step function of the first feature (its sign and whether it
  // exceeds 1, or its category), with 20% noise.
  const data::Column& key = ds.column(0);
  std::vector<int> labels(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t bucket = rng.index(num_labels);
    if (!key.is_missing(r) && !rng.bernoulli(0.2)) {
      bucket = key.type() == data::ColumnType::kNumeric
                   ? static_cast<std::size_t>(std::signbit(key.numeric(r))) +
                         (key.numeric(r) > 1.0 ? 1 : 0)
                   : key.category(r);
      bucket %= num_labels;
    }
    labels[r] = label_pool[bucket];
  }
  ds.set_labels(std::move(labels));
  return ds;
}

DecisionTreeParams random_tree_params(std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  DecisionTreeParams params;
  const std::size_t depths[] = {1, 1, 2, 4, 12};
  params.max_depth = depths[rng.index(std::size(depths))];
  const std::size_t leaves[] = {1, 1, 2, 3, 7};
  params.min_samples_leaf = leaves[rng.index(std::size(leaves))];
  const double gains[] = {1e-9, 1e-9, 0.0, 0.05, -2.0};
  params.min_gain = gains[rng.index(std::size(gains))];
  params.missing = rng.bernoulli(0.5) ? MissingSplitPolicy::kOwnBranch
                                      : MissingSplitPolicy::kMajorityBranch;
  return params;
}

TEST(DecisionTreeTest, SweepMatchesExhaustiveOracle) {
  std::size_t splits = 0, own_branch_slots = 0, empty_branches = 0, stumps = 0;
  std::size_t tied_gains = 0, ulp_midpoints = 0, refusals = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Dataset ds = random_tree_dataset(seed);
    const DecisionTreeParams params = random_tree_params(seed);
    DecisionTree tree(params);
    tree.fit(ds);
    const oracle::OracleTree want = oracle::fit(ds, params);

    const std::vector<ExportedTreeNode> got = tree.export_nodes();
    ASSERT_EQ(got.size(), want.nodes.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("node " + std::to_string(i));
      const ExportedTreeNode& a = got[i];
      const ExportedTreeNode& b = want.nodes[i];
      EXPECT_EQ(a.leaf, b.leaf);
      EXPECT_EQ(a.label, b.label);
      EXPECT_EQ(a.feature, b.feature);
      EXPECT_EQ(a.numeric, b.numeric);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.threshold),
                std::bit_cast<std::uint64_t>(b.threshold));
      EXPECT_EQ(a.children, b.children);
      EXPECT_EQ(a.missing_slot, b.missing_slot);
      if (b.leaf) continue;
      ++splits;
      const std::size_t branches =
          b.numeric ? 2 : ds.column(b.feature).categories().size();
      if (params.missing == MissingSplitPolicy::kOwnBranch && b.missing_slot == branches) {
        ++own_branch_slots;
      }
      if (std::count(b.children.begin(), b.children.end(), ExportedTreeNode::kNoNode) > 0) {
        ++empty_branches;
      }
    }
    EXPECT_EQ(tree.default_class(), want.default_class);
    EXPECT_EQ(tree.node_count(), want.nodes.size());
    EXPECT_EQ(tree.depth(), want.depth);
    if (params.max_depth == 1 && want.depth == 2) ++stumps;
    tied_gains += want.tied_gains;
    ulp_midpoints += want.ulp_midpoints;
    refusals += want.refusals;
  }
  // The datasets must reach every case the sweep could get wrong.
  EXPECT_GT(splits, 400u);
  EXPECT_GT(own_branch_slots, 50u);
  EXPECT_GT(empty_branches, 50u);
  EXPECT_GT(stumps, 20u);
  EXPECT_GT(tied_gains, 300u);
  EXPECT_GT(ulp_midpoints, 300u);
  EXPECT_GT(refusals, 30u);
}

TEST(DecisionTreeTest, SplitSearchIsLinearPerLevel) {
  // 2,000 distinct-valued rows: the exhaustive search re-partitions every
  // present row per candidate threshold; the sweep visits each row once
  // per node and feature, so at most n * d rows per tree level.
  Rng rng(77);
  Dataset ds = numeric_blobs(2000, 1.0, rng);
  inject_missing(ds, 0.05, rng);
  const DecisionTreeParams params{};
  obs::Counter& scanned = obs::registry().counter("learners.split_rows_scanned");
  const std::uint64_t before = scanned.value();
  DecisionTree tree(params);
  tree.fit(ds);
  const std::uint64_t swept = scanned.value() - before;

  const std::uint64_t bound = ds.rows() * ds.num_columns() * tree.depth();
  EXPECT_GT(swept, 0u);
  EXPECT_LE(swept, bound);
  EXPECT_GT(oracle::fit(ds, params).rows_scanned, bound);
}

// ---- NaiveBayes ------------------------------------------------------------

TEST(NaiveBayesTest, LearnsPhoneFleet) {
  Rng rng(5);
  Dataset train = make_phone_fleet(600, 0.0, rng);
  Dataset test = make_phone_fleet(300, 0.0, rng);
  NaiveBayes nb;
  nb.fit(train);
  EXPECT_GE(nb.accuracy(test), 0.8);  // NB can't express the conjunction exactly
}

TEST(NaiveBayesTest, LearnsGaussianBlobs) {
  Rng rng(6);
  Dataset train = numeric_blobs(300, 6.0, rng);
  Dataset test = numeric_blobs(150, 6.0, rng);
  NaiveBayes nb;
  nb.fit(train);
  EXPECT_GE(nb.accuracy(test), 0.95);
}

TEST(NaiveBayesTest, MissingCellsAreMarginalized) {
  Rng rng(7);
  Dataset train = numeric_blobs(300, 6.0, rng);
  Dataset test = numeric_blobs(150, 6.0, rng);
  inject_missing(test, 0.3, rng);
  NaiveBayes nb;
  nb.fit(train);
  EXPECT_GE(nb.accuracy(test), 0.85);
}

TEST(NaiveBayesTest, LogPosteriorOrdersClasses) {
  Rng rng(8);
  Dataset train = numeric_blobs(200, 8.0, rng);
  NaiveBayes nb;
  nb.fit(train);
  for (std::size_t r = 0; r < 20; ++r) {
    auto lp = nb.log_posterior(train, r);
    ASSERT_EQ(lp.size(), 2u);
    EXPECT_EQ(lp[1] > lp[0] ? 1 : 0, nb.predict_row(train, r));
  }
}

TEST(NaiveBayesTest, Validation) {
  EXPECT_THROW(NaiveBayes(0.0), InvalidArgument);
  NaiveBayes nb;
  Dataset probe = make_phone_fleet_paper();
  EXPECT_THROW(nb.log_posterior(probe, 0), InvalidArgument);  // not fitted
}

// ---- LogisticRegression ------------------------------------------------------

TEST(LogisticTest, SeparatesBlobs) {
  Rng rng(9);
  Dataset train = numeric_blobs(300, 5.0, rng);
  Dataset test = numeric_blobs(150, 5.0, rng);
  LogisticRegression lr;
  lr.fit(train);
  EXPECT_GE(lr.accuracy(test), 0.95);
}

TEST(LogisticTest, ProbabilityIsCalibratedDirectionally) {
  Rng rng(10);
  Dataset train = numeric_blobs(400, 6.0, rng);
  LogisticRegression lr;
  lr.fit(train);
  double p_sum_1 = 0.0, p_sum_0 = 0.0;
  std::size_t n1 = 0, n0 = 0;
  for (std::size_t r = 0; r < train.rows(); ++r) {
    const double p = lr.probability(train, r);
    if (train.label(r) == 1) {
      p_sum_1 += p;
      ++n1;
    } else {
      p_sum_0 += p;
      ++n0;
    }
  }
  EXPECT_GT(p_sum_1 / n1, 0.85);
  EXPECT_LT(p_sum_0 / n0, 0.15);
}

TEST(LogisticTest, MissingImputedWithTrainMean) {
  Rng rng(11);
  Dataset train = numeric_blobs(300, 6.0, rng);
  Dataset test = numeric_blobs(150, 6.0, rng);
  inject_missing(test, 0.25, rng);
  LogisticRegression lr;
  lr.fit(train);
  EXPECT_GE(lr.accuracy(test), 0.8);
}

TEST(LogisticTest, RejectsMulticlass) {
  Dataset ds;
  auto& x = ds.add_numeric_column("x");
  for (int i = 0; i < 6; ++i) x.push_numeric(i);
  ds.set_labels({0, 1, 2, 0, 1, 2});
  LogisticRegression lr;
  EXPECT_THROW(lr.fit(ds), InvalidArgument);
}

// ---- Knn ----------------------------------------------------------------------

TEST(KnnTest, ClassifiesBlobs) {
  Rng rng(12);
  Dataset train = numeric_blobs(300, 5.0, rng);
  Dataset test = numeric_blobs(150, 5.0, rng);
  KnnClassifier knn(5);
  knn.fit(train);
  EXPECT_GE(knn.accuracy(test), 0.95);
}

TEST(KnnTest, MixedTypesAndMissing) {
  Rng rng(13);
  Dataset train = make_phone_fleet(400, 0.0, rng);
  Dataset test = make_phone_fleet(150, 0.0, rng);
  inject_missing(test, 0.2, rng);
  KnnClassifier knn(7);
  knn.fit(train);
  EXPECT_GE(knn.accuracy(test), 0.8);
}

TEST(KnnTest, KOneMemorizesTrainingSet) {
  Rng rng(14);
  Dataset train = numeric_blobs(100, 1.0, rng);
  KnnClassifier knn(1);
  knn.fit(train);
  EXPECT_DOUBLE_EQ(knn.accuracy(train), 1.0);
}

TEST(KnnTest, Validation) {
  EXPECT_THROW(KnnClassifier(0), InvalidArgument);
}

// ---- PatternEnsemble -------------------------------------------------------------

ClassifierFactory tree_factory() {
  return [] { return std::make_unique<DecisionTree>(); };
}

TEST(PatternEnsembleTest, CompleteDataBehavesLikeSingleModel) {
  Rng rng(15);
  Dataset train = make_phone_fleet(400, 0.0, rng);
  Dataset test = make_phone_fleet(150, 0.0, rng);
  PatternEnsemble ens(tree_factory());
  ens.fit(train);
  EXPECT_EQ(ens.num_models(), 1u);  // one availability pattern: everything
  EXPECT_GE(ens.accuracy(test), 0.95);
}

TEST(PatternEnsembleTest, TrainsOneModelPerPattern) {
  Rng rng(16);
  Dataset train = make_phone_fleet(800, 0.0, rng);
  inject_missing(train, 0.2, rng);
  PatternEnsemble ens(tree_factory(), 10);
  ens.fit(train);
  // 3 columns -> up to 7 nonempty patterns (at least several hit min rows).
  EXPECT_GE(ens.num_models(), 3u);
  EXPECT_LE(ens.num_models(), 7u);
  EXPECT_GT(ens.total_training_rows(), train.rows());  // rows shared across models
}

TEST(PatternEnsembleTest, BeatsNothingOnMissingTest) {
  Rng rng(17);
  Dataset train = make_phone_fleet(900, 0.0, rng);
  Dataset test = make_phone_fleet(300, 0.0, rng);
  inject_missing(train, 0.25, rng);
  inject_missing(test, 0.25, rng);
  PatternEnsemble ens(tree_factory(), 8);
  ens.fit(train);
  EXPECT_GE(ens.accuracy(test), 0.8);
}

TEST(PatternEnsembleTest, FallbackToSubPattern) {
  Rng rng(18);
  Dataset train = make_phone_fleet(500, 0.0, rng);
  PatternEnsemble ens(tree_factory());
  ens.fit(train);  // only the full pattern exists

  Dataset test = make_phone_fleet(100, 0.0, rng);
  inject_missing(test, 0.5, rng);
  // Full-pattern model cannot serve most rows; fallback must not throw.
  EXPECT_NO_THROW(ens.predict(test));
  EXPECT_GT(ens.fallback_rate(), 0.0);
}

TEST(PatternEnsembleTest, Validation) {
  EXPECT_THROW(PatternEnsemble(nullptr), InvalidArgument);
  EXPECT_THROW(PatternEnsemble(tree_factory(), 0), InvalidArgument);
}

}  // namespace
}  // namespace iotml::learners
