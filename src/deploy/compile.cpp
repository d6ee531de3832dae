#include "deploy/compile.hpp"

#include "deploy/codec.hpp"
#include "deploy/quantize.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::deploy {

namespace {

Tensor f32_tensor(std::vector<float> values) {
  Tensor t;
  t.precision = Precision::kFloat32;
  t.f = std::move(values);
  return t;
}

std::uint16_t label_classes(const data::Dataset& train) {
  return narrow_u16(train.num_classes(), "class count");
}

void finish_compile_span(obs::Span& span, const CompiledModel& model) {
  if (!span.active()) return;
  span.arg("kind", model_kind_name(model.kind));
  span.arg("features", static_cast<std::uint64_t>(model.features.size()));
  span.arg("bytes", static_cast<std::uint64_t>(model.size_bytes()));
}

}  // namespace

std::vector<FeatureSchema> schema_of(const data::Dataset& ds) {
  std::vector<FeatureSchema> schema;
  schema.reserve(ds.num_columns());
  for (std::size_t c = 0; c < ds.num_columns(); ++c) {
    FeatureSchema fs;
    fs.name = ds.column(c).name();
    fs.categorical = ds.column(c).type() == data::ColumnType::kCategorical;
    if (fs.categorical) fs.categories = ds.column(c).categories();
    schema.push_back(std::move(fs));
  }
  return schema;
}

CompiledModel compile(const learners::DecisionTree& tree, const data::Dataset& train) {
  obs::Span span("deploy.compile", "deploy");
  static obs::Counter& deploy_compiles = obs::registry().counter("deploy.compiles");
  deploy_compiles.add();

  const std::vector<learners::ExportedTreeNode> exported = tree.export_nodes();
  IOTML_CHECK(tree.train_category_labels().size() == train.num_columns(),
              "deploy::compile(tree): schema does not match the fit dataset");

  CompiledModel model;
  model.kind = ModelKind::kTree;
  model.num_classes = label_classes(train);
  model.features = schema_of(train);

  model.tree.nodes.reserve(exported.size());
  std::vector<float> thresholds;
  thresholds.reserve(exported.size());
  for (const learners::ExportedTreeNode& n : exported) {
    TreeNode node;
    node.flags = narrow_u8((n.leaf ? 1U : 0U) | (n.numeric ? 2U : 0U), "TreeNode.flags");
    node.label = narrow_u8(static_cast<std::size_t>(n.label), "tree leaf label");
    thresholds.push_back(n.leaf || !n.numeric ? 0.0F
                                              : static_cast<float>(n.threshold));
    if (!n.leaf) {
      node.feature = narrow_u16(n.feature, "tree split feature");
      node.child_base = narrow_u16(model.tree.child_index.size(), "tree child pool");
      node.child_count = narrow_u8(n.children.size(), "tree children per split");
      node.missing_slot = narrow_u8(n.missing_slot, "tree missing slot");
      for (std::size_t child : n.children) {
        model.tree.child_index.push_back(
            child == learners::ExportedTreeNode::kNoNode
                ? kNoChild
                : narrow_u16(child, "tree child id"));
      }
    }
    model.tree.nodes.push_back(node);
  }
  IOTML_CHECK(model.tree.nodes.size() <= 0xFFFF,
              "deploy::compile(tree): too many nodes for the artifact format");
  model.tree.thresholds = f32_tensor(std::move(thresholds));
  model.validate();
  finish_compile_span(span, model);
  return model;
}

CompiledModel compile(const learners::LogisticRegression& lr, const data::Dataset& train) {
  obs::Span span("deploy.compile", "deploy");
  static obs::Counter& deploy_compiles = obs::registry().counter("deploy.compiles");
  deploy_compiles.add();

  IOTML_CHECK(lr.fitted(), "deploy::compile(logistic): call fit() first");
  IOTML_CHECK(lr.weights().size() == train.num_columns(),
              "deploy::compile(logistic): schema does not match the fit dataset");

  CompiledModel model;
  model.kind = ModelKind::kLinear;
  model.num_classes = 2;
  model.features = schema_of(train);

  // Fold the training standardization into the artifact: the device scores
  //   z = b' + sum_j w'_j * x_j   with   w'_j = w_j / s_j,
  //   b' = b - sum_j w'_j * m_j,
  // which equals the trained b + sum_j w_j (x_j - m_j) / s_j. A missing cell
  // substitutes the impute value m_j and so contributes exactly 0, matching
  // the trainer's mean imputation.
  const std::size_t d = lr.weights().size();
  std::vector<float> weights(d), impute(d);
  double bias = lr.bias();
  for (std::size_t j = 0; j < d; ++j) {
    const double folded = lr.weights()[j] / lr.feature_scales()[j];
    weights[j] = static_cast<float>(folded);
    impute[j] = static_cast<float>(lr.feature_means()[j]);
    bias -= folded * lr.feature_means()[j];
  }
  model.linear.weights = f32_tensor(std::move(weights));
  model.linear.impute = f32_tensor(std::move(impute));
  model.linear.bias = static_cast<float>(bias);
  model.linear.regression = 0;
  model.validate();
  finish_compile_span(span, model);
  return model;
}

CompiledModel compile(const learners::NaiveBayes& nbc, const data::Dataset& train) {
  obs::Span span("deploy.compile", "deploy");
  static obs::Counter& deploy_compiles = obs::registry().counter("deploy.compiles");
  deploy_compiles.add();

  IOTML_CHECK(nbc.fitted(), "deploy::compile(naive-bayes): call fit() first");
  IOTML_CHECK(nbc.column_kinds().size() == train.num_columns(),
              "deploy::compile(naive-bayes): schema does not match the fit dataset");

  CompiledModel model;
  model.kind = ModelKind::kNaiveBayes;
  model.num_classes = narrow_u16(nbc.class_count(), "class count");
  model.features = schema_of(train);

  std::vector<float> priors;
  priors.reserve(nbc.log_priors().size());
  for (double p : nbc.log_priors()) priors.push_back(static_cast<float>(p));
  model.nb.log_prior = f32_tensor(std::move(priors));

  model.nb.features.resize(model.features.size());
  for (std::size_t fi = 0; fi < model.features.size(); ++fi) {
    NaiveBayesFeature& out = model.nb.features[fi];
    if (model.features[fi].categorical) {
      const auto& table = nbc.categorical_tables()[fi];  // [class][category]
      std::vector<float> flat;
      flat.reserve(static_cast<std::size_t>(model.num_classes) *
                   model.features[fi].categories.size());
      for (const std::vector<double>& per_class : table) {
        for (double v : per_class) flat.push_back(static_cast<float>(v));
      }
      out.log_likelihood = f32_tensor(std::move(flat));
    } else {
      const auto& gaussians = nbc.gaussians()[fi];  // [class]
      std::vector<float> mean, variance;
      mean.reserve(gaussians.size());
      variance.reserve(gaussians.size());
      out.class_present.reserve(gaussians.size());
      for (const auto& g : gaussians) {
        mean.push_back(static_cast<float>(g.mean));
        variance.push_back(static_cast<float>(g.variance));
        out.class_present.push_back(g.count > 0 ? 1 : 0);
      }
      out.mean = f32_tensor(std::move(mean));
      out.variance = f32_tensor(std::move(variance));
    }
  }
  model.validate();
  finish_compile_span(span, model);
  return model;
}

CompiledModel compile(const kernels::KernelRidge& krr,
                      const std::vector<std::string>& feature_names) {
  obs::Span span("deploy.compile", "deploy");
  static obs::Counter& deploy_compiles = obs::registry().counter("deploy.compiles");
  deploy_compiles.add();

  IOTML_CHECK(krr.fitted(), "deploy::compile(krr): call fit() first");
  IOTML_CHECK(krr.kernel_fn().name() == "linear",
              "deploy::compile(krr): only linear-kernel KRR compiles to a "
              "weight vector (nonlinear kernels need the training set)");
  const la::Matrix& x = krr.train_inputs();
  IOTML_CHECK(feature_names.size() == x.cols(),
              "deploy::compile(krr): feature name count != trained dimension");

  CompiledModel model;
  model.kind = ModelKind::kLinear;
  model.num_classes = 1;
  model.features.reserve(feature_names.size());
  for (const std::string& name : feature_names) {
    model.features.push_back(FeatureSchema{name, false, {}});
  }

  // w = X^T alpha: the dual collapses to a primal weight vector.
  std::vector<float> weights(x.cols(), 0.0F);
  const std::vector<double>& alpha = krr.dual_coefficients();
  for (std::size_t j = 0; j < x.cols(); ++j) {
    double w = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) w += alpha[i] * x(i, j);
    weights[j] = static_cast<float>(w);
  }
  model.linear.weights = f32_tensor(std::move(weights));
  model.linear.impute = f32_tensor(std::vector<float>(x.cols(), 0.0F));
  model.linear.bias = 0.0F;
  model.linear.regression = 1;
  model.validate();
  finish_compile_span(span, model);
  return model;
}

CompiledModel fit_and_compile(ModelKind kind, const data::Dataset& train) {
  switch (kind) {
    case ModelKind::kTree: {
      learners::DecisionTree tree;
      tree.fit(train);
      return compile(tree, train);
    }
    case ModelKind::kLinear: {
      learners::LogisticRegression lr;
      lr.fit(train);
      return compile(lr, train);
    }
    case ModelKind::kNaiveBayes: {
      learners::NaiveBayes nb;
      nb.fit(train);
      return compile(nb, train);
    }
  }
  return {};
}

CompiledModel compile_artifact(ModelKind kind, Precision precision,
                               const data::Dataset& train) {
  CompiledModel model = fit_and_compile(kind, train);
  if (precision == Precision::kFloat32) return model;
  return quantize(model, precision);
}

}  // namespace iotml::deploy
