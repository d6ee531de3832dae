#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "data/csv.hpp"
#include "data/dataset.hpp"
#include "data/metrics.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "net/message.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace iotml::data {
namespace {

TEST(ColumnTest, NumericBasics) {
  Column c("temp", ColumnType::kNumeric);
  c.push_numeric(1.5);
  c.push_missing();
  c.push_numeric(3.0);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c.numeric(0), 1.5);
  EXPECT_TRUE(c.is_missing(1));
  EXPECT_EQ(c.missing_count(), 1u);
  EXPECT_THROW(c.numeric(1), InvalidArgument);  // missing cell
  c.set_numeric(1, 2.0);
  EXPECT_FALSE(c.is_missing(1));
  EXPECT_DOUBLE_EQ(c.numeric(1), 2.0);
}

TEST(ColumnTest, CategoricalInterning) {
  Column c("os", ColumnType::kCategorical);
  c.push_category("Android");
  c.push_category("iOS");
  c.push_category("Android");
  EXPECT_EQ(c.categories().size(), 2u);
  EXPECT_EQ(c.category(0), c.category(2));
  EXPECT_EQ(c.category_label(1), "iOS");
}

TEST(ColumnTest, TypeMismatchThrows) {
  Column num("x", ColumnType::kNumeric);
  EXPECT_THROW(num.push_category("a"), InvalidArgument);
  Column cat("y", ColumnType::kCategorical);
  EXPECT_THROW(cat.push_numeric(1.0), InvalidArgument);
}

TEST(DatasetTest, BuildValidateSelect) {
  Dataset ds;
  auto& a = ds.add_numeric_column("a");
  auto& b = ds.add_categorical_column("b");
  for (int i = 0; i < 4; ++i) {
    a.push_numeric(i);
    b.push_category(i % 2 == 0 ? "even" : "odd");
  }
  ds.set_labels({0, 1, 0, 1});
  ds.validate();
  EXPECT_EQ(ds.rows(), 4u);
  EXPECT_EQ(ds.num_classes(), 2u);
  EXPECT_EQ(ds.column_index("b"), 1u);
  EXPECT_THROW(ds.column_index("zzz"), InvalidArgument);

  Dataset sub = ds.select_rows({1, 3});
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_DOUBLE_EQ(sub.column(0).numeric(0), 1.0);
  EXPECT_EQ(sub.labels(), (std::vector<int>{1, 1}));

  Dataset cols = ds.select_columns({1});
  EXPECT_EQ(cols.num_columns(), 1u);
  EXPECT_EQ(cols.column(0).name(), "b");
  EXPECT_TRUE(cols.has_labels());
}

TEST(DatasetTest, ValidateCatchesRaggedColumns) {
  Dataset ds;
  ds.add_numeric_column("a").push_numeric(1.0);
  ds.add_numeric_column("b");  // empty
  EXPECT_THROW(ds.validate(), InvalidArgument);
}

TEST(DatasetTest, MissingRate) {
  Dataset ds;
  auto& a = ds.add_numeric_column("a");
  a.push_numeric(1);
  a.push_missing();
  a.push_missing();
  a.push_numeric(2);
  EXPECT_DOUBLE_EQ(ds.missing_rate(), 0.5);
}

TEST(DatasetTest, NegativeLabelsRejected) {
  Dataset ds;
  EXPECT_THROW(ds.set_labels({0, -1}), InvalidArgument);
}

// ---- append_rows: the bulk path against a per-cell oracle -------------------

/// A seeded random dataset over `categorical` (one entry per column: true =
/// categorical). Category labels are drawn from `pool`; about a fifth of the
/// cells are pushed missing and a tenth are set_missing after holding a
/// value, so raw() keeps a stale value under them.
Dataset random_dataset(Rng& rng, const std::vector<bool>& categorical, std::size_t rows,
                       bool labeled, const std::vector<std::string>& pool) {
  Dataset ds;
  for (std::size_t c = 0; c < categorical.size(); ++c) {
    const std::string name = "c" + std::to_string(c);
    Column& col = categorical[c] ? ds.add_categorical_column(name) : ds.add_numeric_column(name);
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.bernoulli(0.2)) {
        col.push_missing();
      } else if (categorical[c]) {
        col.push_category(pool[rng.index(pool.size())]);
      } else {
        col.push_numeric(rng.uniform(-1e3, 1e3));
      }
      if (rng.bernoulli(0.1)) col.set_missing(r);
    }
  }
  if (labeled) {
    std::vector<int> labels(rows);
    for (int& y : labels) y = rng.uniform_int(0, 3);
    ds.set_labels(std::move(labels));
  }
  return ds;
}

/// The slow path append_rows must reproduce: `src`'s cells pushed one by one.
void per_cell_append(Dataset& dst, const Dataset& src) {
  for (std::size_t c = 0; c < src.num_columns(); ++c) {
    const Column& from = src.column(c);
    Column& to = dst.column(c);
    for (std::size_t r = 0; r < from.size(); ++r) {
      if (from.is_missing(r)) {
        to.push_missing();
      } else if (from.type() == ColumnType::kNumeric) {
        to.push_numeric(from.numeric(r));
      } else {
        to.push_category(from.category_label(r));
      }
    }
  }
  if (src.has_labels()) {
    std::vector<int> labels = dst.labels();
    labels.insert(labels.end(), src.labels().begin(), src.labels().end());
    dst.set_labels(std::move(labels));
  }
}

/// Bit-equal cells (raw() included), missingness, dictionaries, labels and
/// wire checksum.
void expect_identical(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.num_columns(), want.num_columns());
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const Column& g = got.column(c);
    const Column& w = want.column(c);
    EXPECT_EQ(g.name(), w.name());
    EXPECT_EQ(g.type(), w.type());
    EXPECT_EQ(g.categories(), w.categories()) << "column " << c;
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t r = 0; r < w.size(); ++r) {
      EXPECT_EQ(g.is_missing(r), w.is_missing(r)) << "column " << c << " row " << r;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.raw()[r]), std::bit_cast<std::uint64_t>(w.raw()[r]))
          << "column " << c << " row " << r;
      if (!w.is_missing(r) && w.type() == ColumnType::kCategorical) {
        EXPECT_EQ(g.category_label(r), w.category_label(r));
      }
    }
  }
  EXPECT_EQ(got.labels(), want.labels());
  EXPECT_EQ(net::payload_checksum(got), net::payload_checksum(want));
}

TEST(DatasetAppend, BulkAppendMatchesPerCellOracle) {
  Rng rng(20);
  const std::vector<std::string> dst_pool = {"gamma", "alpha", "beta"};
  const std::vector<std::string> src_pool = {"alpha", "delta", "beta", "epsilon", "gamma"};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t cols = 1 + rng.index(4);
    std::vector<bool> categorical(cols);
    for (std::size_t c = 0; c < cols; ++c) categorical[c] = rng.bernoulli(0.5);
    const bool labeled = rng.bernoulli(0.5);
    Dataset dst = random_dataset(rng, categorical, 1 + rng.index(20), labeled, dst_pool);
    // Seed unused labels too, so the destination dictionary holds labels the
    // source uses, in another order, before any cell refers to them.
    for (std::size_t c = 0; c < cols; ++c) {
      if (categorical[c] && rng.bernoulli(0.5)) dst.column(c).intern("epsilon");
    }
    // A labeled dataset has at least one row (no labels reads as unlabeled).
    const std::size_t src_rows = rng.index(40) + (labeled ? 1 : 0);
    const Dataset src = random_dataset(rng, categorical, src_rows, labeled, src_pool);

    Dataset oracle = dst;
    per_cell_append(oracle, src);
    Dataset by_copy = dst;
    by_copy.append_rows(src);
    expect_identical(by_copy, oracle);
    Dataset by_move = dst;
    Dataset doomed = src;
    by_move.append_rows(std::move(doomed));
    expect_identical(by_move, oracle);
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
}

TEST(DatasetAppend, AppendToEmptyTakesTheSourceWholesale) {
  Rng rng(7);
  const std::vector<std::string> pool = {"on", "off", "idle"};
  const Dataset src = random_dataset(rng, {false, true, false}, 25, true, pool);

  Dataset copied;
  copied.append_rows(src);
  expect_identical(copied, src);

  Dataset doomed = src;
  const Column* first = &doomed.column(0);
  const double* cells = doomed.column(1).raw().data();
  Dataset moved;
  moved.append_rows(std::move(doomed));
  expect_identical(moved, src);
  EXPECT_EQ(&moved.column(0), first);  // the column itself changed hands
  EXPECT_EQ(moved.column(1).raw().data(), cells);
  EXPECT_EQ(doomed.num_columns(), 0u);  // the source is left empty
  EXPECT_EQ(doomed.rows(), 0u);
  EXPECT_FALSE(doomed.has_labels());
}

TEST(DatasetAppend, SchemaMismatchThrowsAndLeavesTheDestinationAlone) {
  Rng rng(3);
  const std::vector<std::string> pool = {"a", "b"};
  const Dataset dst = random_dataset(rng, {false, true}, 5, true, pool);
  const std::vector<Dataset> bad = {
      random_dataset(rng, {false}, 3, true, pool),              // column count
      random_dataset(rng, {false, true}, 3, false, pool),       // label presence
      random_dataset(rng, {false, false}, 3, true, pool),       // column type
      random_dataset(rng, {false, true, true}, 3, true, pool),  // column count
  };
  for (const Dataset& other : bad) {
    Dataset by_copy = dst;
    EXPECT_THROW(by_copy.append_rows(other), InvalidArgument);
    expect_identical(by_copy, dst);
    Dataset by_move = dst;
    Dataset doomed = other;
    EXPECT_THROW(by_move.append_rows(std::move(doomed)), InvalidArgument);
    expect_identical(by_move, dst);
  }
  Dataset renamed;
  renamed.add_numeric_column("c0").push_numeric(1.0);
  renamed.add_categorical_column("other").push_category("a");
  renamed.set_labels({0});
  Dataset by_name = dst;
  EXPECT_THROW(by_name.append_rows(renamed), InvalidArgument);
  expect_identical(by_name, dst);

  Column num("x", ColumnType::kNumeric);
  EXPECT_THROW(num.append_cells(Column("y", ColumnType::kCategorical)), InvalidArgument);
}

TEST(DatasetAppend, MovesKeepColumnReferencesValid) {
  Dataset ds;
  Column& a = ds.add_numeric_column("a");
  a.push_numeric(1.0);
  Dataset moved = std::move(ds);
  Column& b = moved.add_categorical_column("b");
  b.push_category("x");
  a.push_numeric(2.0);  // still moved's first column
  EXPECT_EQ(&moved.column(0), &a);
  EXPECT_EQ(moved.column(0).size(), 2u);
  Dataset copy = moved;
  EXPECT_NE(&copy.column(0), &a);  // a copy is deep
  expect_identical(copy, moved);
}

TEST(ToSamples, ThrowPolicyOnMissing) {
  Dataset ds;
  auto& a = ds.add_numeric_column("a");
  a.push_numeric(1);
  a.push_missing();
  EXPECT_THROW(to_samples(ds), InvalidArgument);
}

TEST(ToSamples, NanAndMeanPolicies) {
  Dataset ds;
  auto& a = ds.add_numeric_column("a");
  a.push_numeric(1);
  a.push_missing();
  a.push_numeric(3);

  Samples nan = to_samples(ds, MissingPolicy::kNan);
  EXPECT_TRUE(std::isnan(nan.x(1, 0)));

  Samples mean = to_samples(ds, MissingPolicy::kColumnMean);
  EXPECT_DOUBLE_EQ(mean.x(1, 0), 2.0);
}

TEST(ToSamples, CategoricalAsIndex) {
  Dataset ds = make_phone_fleet_paper();
  Samples s = to_samples(ds);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.dim(), 2u);
  // Phones 1 and 3 share battery category AVERAGE.
  EXPECT_DOUBLE_EQ(s.x(0, 0), s.x(2, 0));
  EXPECT_EQ(s.y, (std::vector<int>{0, 1, 1, 0}));
}

TEST(ToSamples, SelectRowsView) {
  Dataset ds = make_phone_fleet_paper();
  Samples s = to_samples(ds);
  Samples sub = select_rows(s, {3, 0});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.y, (std::vector<int>{0, 0}));
  EXPECT_THROW(select_rows(s, {9}), InvalidArgument);
}

TEST(Metrics, Accuracy) {
  EXPECT_DOUBLE_EQ(accuracy({1, 0, 1, 1}, {1, 0, 0, 1}), 0.75);
  EXPECT_THROW(accuracy({1}, {1, 2}), InvalidArgument);
  EXPECT_THROW(accuracy({}, {}), InvalidArgument);
}

TEST(Metrics, ConfusionMatrix) {
  la::Matrix m = confusion_matrix({0, 0, 1, 1}, {0, 1, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(0, 1), 1);
  EXPECT_DOUBLE_EQ(m(1, 0), 0);
  EXPECT_DOUBLE_EQ(m(1, 1), 2);
  EXPECT_THROW(confusion_matrix({0, 3}, {0, 0}, 2), InvalidArgument);
}

TEST(Metrics, BinaryMetricsKnownCase) {
  // actual positives: rows 2,3; predicted positives: rows 1,3.
  BinaryMetrics m = binary_metrics({0, 0, 1, 1}, {0, 1, 0, 1}, 1);
  EXPECT_EQ(m.true_positives, 1u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_DOUBLE_EQ(m.f1, 0.5);
}

TEST(Metrics, BinaryMetricsDegenerate) {
  BinaryMetrics m = binary_metrics({0, 0}, {0, 0}, 1);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(Metrics, MacroF1PerfectPrediction) {
  EXPECT_DOUBLE_EQ(macro_f1({0, 1, 2, 0}, {0, 1, 2, 0}), 1.0);
}

TEST(Metrics, RmseMae) {
  EXPECT_DOUBLE_EQ(rmse({0, 0}, {3, 4}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(mae({0, 0}, {3, -4}), 3.5);
}

TEST(Metrics, MeanStd) {
  MeanStd ms = mean_std({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(ms.mean, 5.0);
  EXPECT_NEAR(ms.stddev, 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(mean_std({3.0}).stddev, 0.0);
}

TEST(Split, TrainTestPartitionsIndices) {
  Rng rng(1);
  auto split = train_test_split(100, 0.25, rng);
  EXPECT_EQ(split.test.size(), 25u);
  EXPECT_EQ(split.train.size(), 75u);
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(Split, TrainTestValidation) {
  Rng rng(1);
  EXPECT_THROW(train_test_split(1, 0.5, rng), InvalidArgument);
  EXPECT_THROW(train_test_split(10, 0.0, rng), InvalidArgument);
  EXPECT_THROW(train_test_split(10, 1.0, rng), InvalidArgument);
}

TEST(Split, StratifiedPreservesClassBalance) {
  Rng rng(2);
  std::vector<int> labels;
  for (int i = 0; i < 90; ++i) labels.push_back(0);
  for (int i = 0; i < 10; ++i) labels.push_back(1);
  auto split = stratified_split(labels, 0.3, rng);
  std::size_t minority_test = 0;
  for (std::size_t i : split.test) {
    if (labels[i] == 1) ++minority_test;
  }
  EXPECT_EQ(minority_test, 3u);  // 30% of 10
  EXPECT_EQ(split.train.size() + split.test.size(), 100u);
}

TEST(Split, KFoldCoversEachRowExactlyOnce) {
  Rng rng(3);
  KFold kf(23, 5, rng);
  std::set<std::size_t> tested;
  for (std::size_t f = 0; f < kf.num_folds(); ++f) {
    auto test = kf.test_indices(f);
    auto train = kf.train_indices(f);
    EXPECT_EQ(test.size() + train.size(), 23u);
    for (std::size_t idx : test) {
      EXPECT_TRUE(tested.insert(idx).second) << "row in two test folds";
    }
  }
  EXPECT_EQ(tested.size(), 23u);
}

TEST(Split, KFoldValidation) {
  Rng rng(1);
  EXPECT_THROW(KFold(5, 1, rng), InvalidArgument);
  EXPECT_THROW(KFold(3, 4, rng), InvalidArgument);
  KFold kf(10, 3, rng);
  EXPECT_THROW(kf.test_indices(3), InvalidArgument);
}

TEST(Synthetic, FacetedGaussianStructure) {
  Rng rng(4);
  FacetedData fd = make_faceted_gaussian(
      200, {{3, 3.0, 1.0, true}, {2, 2.0, 1.0, true}, {2, 0.0, 1.0, false}}, rng);
  EXPECT_EQ(fd.samples.size(), 200u);
  EXPECT_EQ(fd.samples.dim(), 7u);
  ASSERT_EQ(fd.views.size(), 3u);
  EXPECT_EQ(fd.views[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(fd.views[2], (std::vector<std::size_t>{5, 6}));
  // Balanced labels.
  int ones = 0;
  for (int y : fd.samples.y) ones += y;
  EXPECT_EQ(ones, 100);
}

TEST(Synthetic, FacetedGaussianInformativeViewSeparates) {
  Rng rng(5);
  FacetedData fd = make_faceted_gaussian(2000, {{2, 4.0, 1.0, true}}, rng);
  // Project on the difference of class means: strong separation expected.
  la::Vector mean0(2, 0.0), mean1(2, 0.0);
  int n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < fd.samples.size(); ++i) {
    for (std::size_t d = 0; d < 2; ++d) {
      (fd.samples.y[i] == 0 ? mean0 : mean1)[d] += fd.samples.x(i, d);
    }
    (fd.samples.y[i] == 0 ? n0 : n1)++;
  }
  for (std::size_t d = 0; d < 2; ++d) {
    mean0[d] /= n0;
    mean1[d] /= n1;
  }
  double dist = std::hypot(mean1[0] - mean0[0], mean1[1] - mean0[1]);
  EXPECT_NEAR(dist, 4.0, 0.3);
}

TEST(Synthetic, PhoneFleetPaperMatchesTable) {
  Dataset ds = make_phone_fleet_paper();
  EXPECT_EQ(ds.rows(), 4u);
  EXPECT_EQ(ds.column(0).category_label(3), "LOW");
  EXPECT_EQ(ds.column(1).category_label(2), "iOS");
  EXPECT_EQ(ds.labels(), (std::vector<int>{0, 1, 1, 0}));
}

TEST(Synthetic, PhoneFleetGeneratorGroundTruth) {
  Rng rng(6);
  Dataset ds = make_phone_fleet(500, 0.0, rng);
  EXPECT_EQ(ds.rows(), 500u);
  // With zero label noise the concept is deterministic in the features.
  const Column& battery = ds.column(0);
  const Column& os = ds.column(1);
  const Column& signal = ds.column(2);
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    const bool avail = battery.category_label(r) != "LOW" &&
                       os.category_label(r) != "Symbian" &&
                       signal.category_label(r) != "WEAK";
    EXPECT_EQ(ds.label(r), avail ? 1 : 0);
  }
}

TEST(Synthetic, BlobsSeparated) {
  Rng rng(7);
  Samples s = make_blobs(500, 3, 6.0, 1.0, rng);
  double m0 = 0, m1 = 0;
  int n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.y[i] == 0) {
      m0 += s.x(i, 0);
      ++n0;
    } else {
      m1 += s.x(i, 0);
      ++n1;
    }
  }
  EXPECT_NEAR(m0 / n0, -3.0, 0.3);
  EXPECT_NEAR(m1 / n1, 3.0, 0.3);
}

TEST(Synthetic, XorLabelsMatchQuadrant) {
  Rng rng(8);
  Samples s = make_xor(300, 0.0, rng);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s.y[i], s.x(i, 0) * s.x(i, 1) > 0 ? 1 : 0);
  }
}

TEST(Synthetic, CirclesRadiiRespected) {
  Rng rng(9);
  Samples s = make_circles(400, 1.0, 3.0, 0.05, rng);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double r = std::hypot(s.x(i, 0), s.x(i, 1));
    EXPECT_NEAR(r, s.y[i] == 0 ? 1.0 : 3.0, 0.3);
  }
}

TEST(Csv, RoundTripNumericCategoricalMissing) {
  Dataset ds;
  auto& a = ds.add_numeric_column("a");
  auto& b = ds.add_categorical_column("b");
  a.push_numeric(1.25);
  a.push_missing();
  b.push_category("x");
  b.push_category("y");
  ds.set_labels({1, 0});

  std::stringstream buffer;
  write_csv(ds, buffer);
  Dataset back = read_csv(buffer);

  EXPECT_EQ(back.rows(), 2u);
  EXPECT_EQ(back.num_columns(), 2u);
  EXPECT_EQ(back.column(0).type(), ColumnType::kNumeric);
  EXPECT_EQ(back.column(1).type(), ColumnType::kCategorical);
  EXPECT_DOUBLE_EQ(back.column(0).numeric(0), 1.25);
  EXPECT_TRUE(back.column(0).is_missing(1));
  EXPECT_EQ(back.column(1).category_label(1), "y");
  EXPECT_EQ(back.labels(), (std::vector<int>{1, 0}));
}

TEST(Csv, ReadWithoutLabelColumn) {
  std::stringstream in("x,y\n1,2\n3,4\n");
  Dataset ds = read_csv(in);
  EXPECT_FALSE(ds.has_labels());
  EXPECT_EQ(ds.num_columns(), 2u);
  EXPECT_DOUBLE_EQ(ds.column(1).numeric(1), 4.0);
}

TEST(Csv, RaggedRowThrows) {
  std::stringstream in("x,y\n1\n");
  EXPECT_THROW(read_csv(in), InvalidArgument);
}

TEST(Csv, EmptyInputThrows) {
  std::stringstream in("");
  EXPECT_THROW(read_csv(in), InvalidArgument);
}

}  // namespace
}  // namespace iotml::data
