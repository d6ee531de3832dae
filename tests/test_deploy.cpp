#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "deploy/codec.hpp"
#include "deploy/compile.hpp"
#include "deploy/compiled_model.hpp"
#include "deploy/quantize.hpp"
#include "deploy/runtime.hpp"
#include "kernels/kernel.hpp"
#include "kernels/krr.hpp"
#include "learners/decision_tree.hpp"
#include "learners/logistic.hpp"
#include "learners/naive_bayes.hpp"
#include "sim/fleet.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace iotml::deploy {
namespace {

// ---- Hand-constructed artifacts (golden fixtures, never trained) -------------
//
// The golden files pin the wire format: any byte-level change to the codec —
// field order, endianness, checksum, tensor packing — fails these tests and
// must ship as a format version bump instead.

CompiledModel golden_tree() {
  CompiledModel m;
  m.kind = ModelKind::kTree;
  m.num_classes = 2;
  m.features = {{"temp", false, {}}, {"os", true, {"android", "ios"}}};

  // root: temp <= 21.5 ? leaf(0) : split on os { android -> leaf(1), ios -> ? }
  TreeNode root;
  root.flags = 2;  // numeric split
  root.label = 0;
  root.feature = 0;
  root.child_base = 0;
  root.child_count = 2;
  root.missing_slot = 0;
  TreeNode cold;
  cold.flags = 1;  // leaf
  cold.label = 0;
  TreeNode warm;
  warm.flags = 0;  // categorical split
  warm.label = 1;  // majority fallback for unseen categories
  warm.feature = 1;
  warm.child_base = 2;
  warm.child_count = 2;
  warm.missing_slot = 1;
  TreeNode hot;
  hot.flags = 1;
  hot.label = 1;
  m.tree.nodes = {root, cold, warm, hot};
  m.tree.child_index = {1, 2, 3, kNoChild};
  m.tree.thresholds.f = {21.5F, 0.0F, 0.0F, 0.0F};
  return m;
}

CompiledModel golden_linear() {
  CompiledModel m;
  m.kind = ModelKind::kLinear;
  m.num_classes = 2;
  m.features = {{"temp", false, {}}, {"humidity", false, {}}};
  m.linear.weights.f = {0.5F, -0.25F};
  m.linear.bias = 1.25F;
  m.linear.impute.f = {20.0F, 50.0F};
  m.linear.regression = 0;
  return m;
}

CompiledModel golden_nb() {
  CompiledModel m;
  m.kind = ModelKind::kNaiveBayes;
  m.num_classes = 2;
  m.features = {{"temp", false, {}}, {"os", true, {"android", "ios"}}};
  m.nb.log_prior.f = {-0.693147F, -0.693147F};
  NaiveBayesFeature temp;
  temp.mean.f = {20.0F, 24.0F};
  temp.variance.f = {4.0F, 2.25F};
  temp.class_present = {1, 1};
  NaiveBayesFeature os;
  os.log_likelihood.f = {-0.3F, -1.2F, -0.9F, -0.5F};  // class-major [C * V]
  m.nb.features = {temp, os};
  return m;
}

CompiledModel golden_model(ModelKind kind, Precision precision) {
  CompiledModel base = kind == ModelKind::kTree     ? golden_tree()
                       : kind == ModelKind::kLinear ? golden_linear()
                                                    : golden_nb();
  return precision == Precision::kFloat32 ? base : quantize(base, precision);
}

std::string golden_path(ModelKind kind, Precision precision) {
  return std::string(IOTML_GOLDEN_DIR) + "/" + model_kind_name(kind) + "_" +
         precision_name(precision) + ".bin";
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

const ModelKind kAllKinds[] = {ModelKind::kTree, ModelKind::kLinear,
                               ModelKind::kNaiveBayes};
const Precision kAllPrecisions[] = {Precision::kFloat32, Precision::kInt16,
                                    Precision::kInt8};

// ---- Golden bytes ------------------------------------------------------------

TEST(DeployGolden, BytesPinnedForEveryKindAndPrecision) {
  const char* update = std::getenv("IOTML_UPDATE_GOLDEN");  // NOLINT(concurrency-mt-unsafe)
  const bool regenerate = update != nullptr && std::string(update) == "1";

  for (ModelKind kind : kAllKinds) {
    for (Precision precision : kAllPrecisions) {
      const CompiledModel model = golden_model(kind, precision);
      const std::vector<std::uint8_t> bytes = model.encode();
      const std::string path = golden_path(kind, precision);
      SCOPED_TRACE(path);

      if (regenerate) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good());
        for (std::uint8_t b : bytes) out.put(static_cast<char>(b));
        continue;
      }

      const std::vector<std::uint8_t> pinned = read_file(path);
      ASSERT_FALSE(pinned.empty())
          << "missing golden file; regenerate with IOTML_UPDATE_GOLDEN=1";
      EXPECT_EQ(bytes, pinned)
          << "wire format drifted from the pinned bytes; if intentional, bump "
             "CompiledModel::version and regenerate with IOTML_UPDATE_GOLDEN=1";
      EXPECT_EQ(bytes.size(), model.size_bytes());
    }
  }
}

TEST(DeployGolden, RoundTripIsByteIdentical) {
  for (ModelKind kind : kAllKinds) {
    for (Precision precision : kAllPrecisions) {
      SCOPED_TRACE(model_kind_name(kind) + "/" + precision_name(precision));
      const CompiledModel model = golden_model(kind, precision);
      const std::vector<std::uint8_t> bytes = model.encode();
      const CompiledModel decoded = CompiledModel::decode(bytes);
      EXPECT_EQ(decoded.encode(), bytes);
      EXPECT_EQ(decoded.kind, model.kind);
      EXPECT_EQ(decoded.precision, model.precision);
      EXPECT_EQ(decoded.num_classes, model.num_classes);
      ASSERT_EQ(decoded.features.size(), model.features.size());
      for (std::size_t i = 0; i < model.features.size(); ++i) {
        EXPECT_EQ(decoded.features[i].name, model.features[i].name);
        EXPECT_EQ(decoded.features[i].categorical, model.features[i].categorical);
        EXPECT_EQ(decoded.features[i].categories, model.features[i].categories);
      }
    }
  }
}

TEST(DeployGolden, DecodeRejectsCorruption) {
  const std::vector<std::uint8_t> bytes = golden_tree().encode();

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(CompiledModel::decode(bad_magic), InvalidArgument);

  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 5);
  EXPECT_THROW(CompiledModel::decode(truncated), InvalidArgument);

  std::vector<std::uint8_t> flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x40U;
  EXPECT_THROW(CompiledModel::decode(flipped), InvalidArgument);

  EXPECT_THROW(CompiledModel::decode({}), InvalidArgument);
}

TEST(DeployGolden, DecodeBoundsTensorReservesByTheRemainingBytes) {
  // A 25-byte linear artifact with no features whose weight tensor claims
  // 0xFFFFFFFF float32 values, under a valid trailer: the lying count must
  // fail as truncation, never as a 16 GB reserve.
  ByteWriter w;
  for (const char m : {'I', 'O', 'M', 'L'}) w.u8(static_cast<std::uint8_t>(m));
  w.u16(1);                                           // format version
  w.u8(enum_u8(ModelKind::kLinear));
  w.u8(enum_u8(Precision::kFloat32));
  w.u16(2);                                           // classes
  w.u16(0);                                           // features
  w.u8(enum_u8(Precision::kFloat32));                 // weights tensor
  w.f32(1.0F);                                        // scale
  w.u32(0xFFFFFFFFU);                                 // length
  w.u32(fnv1a(w.bytes().data(), w.size()));
  const std::vector<std::uint8_t> bytes = w.take();
  ASSERT_EQ(bytes.size(), 25u);
  EXPECT_THROW(CompiledModel::decode(bytes), InvalidArgument);
}

TEST(DeployGolden, CostModelIsDeterministic) {
  const InferenceCost tree_cost = golden_tree().cost_per_row();
  EXPECT_GT(tree_cost.comparisons, 0u);
  const InferenceCost linear_cost = golden_linear().cost_per_row();
  EXPECT_EQ(linear_cost.multiply_adds, 2u);  // one per weight
  const InferenceCost nb_cost = golden_nb().cost_per_row();
  EXPECT_GT(nb_cost.multiply_adds + nb_cost.table_lookups, 0u);
  // Quantization changes storage, never the operation count.
  const InferenceCost q = quantize(golden_tree(), Precision::kInt8).cost_per_row();
  EXPECT_EQ(q.comparisons, tree_cost.comparisons);
  EXPECT_EQ(q.multiply_adds, tree_cost.multiply_adds);
  EXPECT_EQ(q.table_lookups, tree_cost.table_lookups);
}

// ---- Quantizer ---------------------------------------------------------------

TEST(DeployQuantize, ShrinksFootprintAndPreservesValues) {
  const CompiledModel model = golden_linear();
  const CompiledModel q8 = quantize(model, Precision::kInt8);
  EXPECT_EQ(q8.precision, Precision::kInt8);
  EXPECT_LT(q8.size_bytes(), model.size_bytes());

  // Dequantized weights stay within one quantization step of the originals.
  ASSERT_EQ(q8.linear.weights.size(), model.linear.weights.size());
  for (std::size_t i = 0; i < model.linear.weights.size(); ++i) {
    EXPECT_NEAR(q8.linear.weights.at(i), model.linear.weights.at(i),
                q8.linear.weights.scale);
  }
  EXPECT_FLOAT_EQ(q8.linear.bias, model.linear.bias);  // bias stays float

  const CompiledModel q16 = quantize(model, Precision::kInt16);
  EXPECT_LE(q16.size_bytes(), model.size_bytes());
  EXPECT_GE(q16.size_bytes(), q8.size_bytes());
}

TEST(DeployQuantize, RejectsBadSourceAndTarget) {
  const CompiledModel model = golden_tree();
  EXPECT_THROW(quantize(model, Precision::kFloat32), InvalidArgument);
  const CompiledModel q8 = quantize(model, Precision::kInt8);
  EXPECT_THROW(quantize(q8, Precision::kInt8), InvalidArgument);
}

TEST(DeployQuantize, ReportMeasuresBothArtifactsOnHoldout) {
  Rng rng(7);
  data::Dataset train = data::make_phone_fleet(200, 0.1, rng);
  data::Dataset holdout = data::make_phone_fleet(100, 0.1, rng);
  learners::DecisionTree tree;
  tree.fit(train);

  CompiledModel deployed;
  const QuantizationReport r = quantize_with_report(
      compile(tree, train), Precision::kInt8, holdout, &deployed);
  EXPECT_EQ(r.precision, Precision::kInt8);
  EXPECT_EQ(deployed.precision, Precision::kInt8);
  EXPECT_GT(r.float32_bytes, r.quantized_bytes);
  EXPECT_GT(r.footprint_ratio, 1.0);
  EXPECT_EQ(r.holdout_rows, 100u);
  EXPECT_GT(r.holdout_accuracy_float, 0.5);
  EXPECT_NEAR(r.accuracy_delta_points,
              100.0 * (r.holdout_accuracy_quantized - r.holdout_accuracy_float),
              1e-9);
}

// ---- Compile/runtime parity with the source learners -------------------------

TEST(DeployRuntime, TreePredictionsMatchSourceLearner) {
  Rng rng(11);
  data::Dataset train = data::make_phone_fleet(300, 0.1, rng);
  data::Dataset test = data::make_phone_fleet(150, 0.1, rng);
  learners::DecisionTree tree;
  tree.fit(train);

  DeviceRuntime runtime(compile(tree, train));
  runtime.bind(test);
  for (std::size_t row = 0; row < test.rows(); ++row) {
    ASSERT_EQ(runtime.predict_row(test, row), tree.predict_row(test, row))
        << "row " << row;
  }
}

TEST(DeployRuntime, LogisticPredictionsMatchSourceLearner) {
  // Scored on the training set: the source learner reads categorical cells
  // as the scoring dataset's local interned index, while the runtime remaps
  // them through the training dictionary, so exact parity is only defined
  // where the two interning orders coincide — i.e. on the fit dataset.
  Rng rng(12);
  data::Dataset train = data::make_phone_fleet(300, 0.1, rng);
  learners::LogisticRegression model;
  model.fit(train);

  DeviceRuntime runtime(compile(model, train));
  runtime.bind(train);
  for (std::size_t row = 0; row < train.rows(); ++row) {
    ASSERT_EQ(runtime.predict_row(train, row), model.predict_row(train, row))
        << "row " << row;
  }
}

TEST(DeployRuntime, NaiveBayesPredictionsMatchSourceLearner) {
  Rng rng(13);
  data::Dataset train = data::make_phone_fleet(300, 0.1, rng);
  data::Dataset test = data::make_phone_fleet(150, 0.1, rng);
  learners::NaiveBayes model;
  model.fit(train);

  DeviceRuntime runtime(compile(model, train));
  runtime.bind(test);
  for (std::size_t row = 0; row < test.rows(); ++row) {
    ASSERT_EQ(runtime.predict_row(test, row), model.predict_row(test, row))
        << "row " << row;
  }
}

TEST(DeployRuntime, LinearKrrScoresMatchSourceModel) {
  Rng rng(14);
  la::Matrix x(40, 2);
  std::vector<double> y(40);
  for (std::size_t i = 0; i < 40; ++i) {
    x(i, 0) = rng.normal(0.0, 1.0);
    x(i, 1) = rng.normal(0.0, 1.0);
    y[i] = 2.0 * x(i, 0) - 0.5 * x(i, 1) + rng.normal(0.0, 0.01);
  }
  kernels::KernelRidge krr(std::make_unique<kernels::LinearKernel>(), 1e-3);
  krr.fit(x, y);

  const CompiledModel model = compile(krr, {"a", "b"});
  EXPECT_EQ(model.linear.regression, 1);

  data::Dataset probe;
  auto& ca = probe.add_numeric_column("a");
  auto& cb = probe.add_numeric_column("b");
  ca.push_numeric(0.7);
  cb.push_numeric(-1.3);
  DeviceRuntime runtime(model);
  runtime.bind(probe);
  const double expected = krr.predict_one(std::vector<double>{0.7, -1.3});
  // float32 weights vs the double-precision source model.
  EXPECT_NEAR(runtime.score_row(probe, 0), expected, 1e-4);
  EXPECT_THROW(runtime.predict_row(probe, 0), InvalidArgument);  // regression head
}

TEST(DeployRuntime, BindRejectsMissingAndMismatchedColumns) {
  DeviceRuntime runtime(golden_linear());

  data::Dataset missing_column;
  missing_column.add_numeric_column("temp").push_numeric(20.0);
  EXPECT_THROW(runtime.bind(missing_column), InvalidArgument);

  data::Dataset wrong_kind;
  wrong_kind.add_numeric_column("temp").push_numeric(20.0);
  wrong_kind.add_categorical_column("humidity").push_category("high");
  EXPECT_THROW(runtime.bind(wrong_kind), InvalidArgument);

  data::Dataset probe;
  probe.add_numeric_column("temp").push_numeric(24.0);
  probe.add_numeric_column("humidity").push_numeric(50.0);
  EXPECT_THROW(runtime.predict_row(probe, 0), InvalidArgument);  // before bind
  runtime.bind(probe);
  EXPECT_EQ(runtime.predict_row(probe, 0), 1);  // 1.25 + 0.5*24 - 0.25*50 = 0.75
}

TEST(DeployRuntime, MissingCellsAndUnseenCategoriesAreHandled) {
  DeviceRuntime tree(golden_tree());
  data::Dataset probe;
  auto& temp = probe.add_numeric_column("temp");
  auto& os = probe.add_categorical_column("os");
  temp.push_numeric(25.0);
  os.push_category("harmony");  // unseen at training time
  temp.push_numeric(25.0);
  os.push_category("android");
  tree.bind(probe);
  // Unseen category falls back to the split node's majority label.
  EXPECT_EQ(tree.predict_row(probe, 0), 1);
  EXPECT_EQ(tree.predict_row(probe, 1), 1);

  DeviceRuntime linear(golden_linear());
  data::Dataset gaps;
  auto& t2 = gaps.add_numeric_column("temp");
  auto& h2 = gaps.add_numeric_column("humidity");
  t2.push_missing();
  h2.push_missing();
  linear.bind(gaps);
  // All-missing row imputes the training means: score = bias + w.impute.
  // 1.25 + 0.5*20 - 0.25*50 = -1.25 -> class 0.
  EXPECT_EQ(linear.predict_row(gaps, 0), 0);
  EXPECT_NEAR(linear.score_row(gaps, 0), -1.25, 1e-5);
}

TEST(DeployCompile, RejectsUnfittedLearners) {
  Rng rng(15);
  data::Dataset train = data::make_phone_fleet(50, 0.0, rng);
  EXPECT_THROW(compile(learners::DecisionTree(), train), InvalidArgument);
  EXPECT_THROW(compile(learners::LogisticRegression(), train), InvalidArgument);
  EXPECT_THROW(compile(learners::NaiveBayes(), train), InvalidArgument);
}

}  // namespace
}  // namespace iotml::deploy

// ---- Fleet deploy phase ------------------------------------------------------

namespace iotml::sim {
namespace {

FleetConfig deploy_config(std::uint64_t seed = 42,
                          deploy::ModelKind kind = deploy::ModelKind::kTree) {
  FleetConfig config;
  config.devices = 16;
  config.edges = 2;
  config.duration_s = 16.0;
  config.seed = seed;
  config.deploy.enabled = true;
  config.deploy.model = kind;
  config.deploy.precision = deploy::Precision::kInt8;
  config.deploy.score_window_s = 8.0;
  return config;
}

TEST(DeployFleet, DeterministicPerSeed) {
  // Byte-identical event log and report across two full runs at the same
  // seed; a different seed must diverge.
  FleetSim a(deploy_config());
  const FleetReport ra = a.run();
  FleetSim b(deploy_config());
  const FleetReport rb = b.run();
  EXPECT_EQ(a.event_log(), b.event_log());
  EXPECT_EQ(ra.to_json(), rb.to_json());

  FleetSim c(deploy_config(43));
  const FleetReport rc = c.run();
  EXPECT_NE(ra.to_json(), rc.to_json());
}

TEST(DeployFleet, DeterministicUnderDownlinkDrops) {
  // The broadcast's retransmission randomness must come from the seeded
  // per-link streams, so even a lossy deploy phase replays byte-exactly.
  FleetConfig config = deploy_config();
  config.deploy.edge_device_link.drop_prob = 0.05;
  FleetSim a(config);
  const FleetReport ra = a.run();
  FleetSim b(config);
  const FleetReport rb = b.run();
  EXPECT_EQ(a.event_log(), b.event_log());
  EXPECT_EQ(ra.to_json(), rb.to_json());
}

TEST(DeployFleet, SummaryAccountsForEveryDeviceAndByte) {
  FleetSim fleet(deploy_config());
  const FleetReport r = fleet.run();
  const DeploySummary& d = r.deploy;
  ASSERT_TRUE(d.enabled);
  EXPECT_GT(d.artifact_bytes_deployed, 0u);
  EXPECT_LE(d.artifact_bytes_deployed, d.artifact_bytes_float32);
  EXPECT_EQ(d.devices_deployed + d.devices_missed, 16u);
  EXPECT_LE(d.predictions_delivered, d.rows_scored);
  EXPECT_LE(d.predictions_correct, d.predictions_delivered);
  EXPECT_GT(d.downlink_bytes, 0u);
  EXPECT_LT(d.uplink_prediction_bytes, d.uplink_raw_bytes);
  EXPECT_NE(r.to_json().find("\"deploy\""), std::string::npos);
}

TEST(DeployFleet, DisabledDeployKeepsReportShape) {
  FleetConfig config = deploy_config();
  config.deploy.enabled = false;
  FleetSim fleet(config);
  const FleetReport r = fleet.run();
  EXPECT_FALSE(r.deploy.enabled);
  EXPECT_EQ(r.to_json().find("\"deploy\""), std::string::npos);
}

}  // namespace
}  // namespace iotml::sim
