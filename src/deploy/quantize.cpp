#include "deploy/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "deploy/codec.hpp"
#include "deploy/runtime.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::deploy {

namespace {

Tensor quantize_tensor(const Tensor& t, Precision target) {
  IOTML_CHECK(t.precision == Precision::kFloat32,
              "deploy::quantize: tensor is already quantized");
  const long long qmax = target == Precision::kInt8 ? 127 : 32767;

  float max_abs = 0.0F;
  for (float v : t.f) max_abs = std::max(max_abs, std::abs(v));

  Tensor out;
  out.precision = target;
  out.scale = max_abs > 0.0F ? max_abs / static_cast<float>(qmax) : 1.0F;
  out.q.reserve(t.f.size());
  for (float v : t.f) {
    long long q = std::llround(static_cast<double>(v) / static_cast<double>(out.scale));
    q = std::clamp(q, -qmax, qmax);
    out.q.push_back(narrow_i16(q, "quantized tensor value"));
  }
  return out;
}

}  // namespace

CompiledModel quantize(const CompiledModel& model, Precision target) {
  obs::Span span("deploy.quantize", "deploy");
  static obs::Counter& deploy_quantizations = obs::registry().counter("deploy.quantizations");
  deploy_quantizations.add();

  IOTML_CHECK(target == Precision::kInt16 || target == Precision::kInt8,
              "deploy::quantize: target must be int16 or int8");
  IOTML_CHECK(model.precision == Precision::kFloat32,
              "deploy::quantize: model is already quantized");

  CompiledModel out = model;
  out.precision = target;
  switch (model.kind) {
    case ModelKind::kTree:
      out.tree.thresholds = quantize_tensor(model.tree.thresholds, target);
      break;
    case ModelKind::kLinear:
      out.linear.weights = quantize_tensor(model.linear.weights, target);
      out.linear.impute = quantize_tensor(model.linear.impute, target);
      break;
    case ModelKind::kNaiveBayes:
      out.nb.log_prior = quantize_tensor(model.nb.log_prior, target);
      for (std::size_t f = 0; f < out.nb.features.size(); ++f) {
        NaiveBayesFeature& feat = out.nb.features[f];
        if (model.features[f].categorical) {
          feat.log_likelihood = quantize_tensor(feat.log_likelihood, target);
        } else {
          feat.mean = quantize_tensor(feat.mean, target);
          feat.variance = quantize_tensor(feat.variance, target);
        }
      }
      break;
  }
  out.validate();
  if (span.active()) {
    span.arg("kind", model_kind_name(out.kind));
    span.arg("precision", precision_name(target));
    span.arg("bytes", static_cast<std::uint64_t>(out.size_bytes()));
  }
  return out;
}

double holdout_accuracy(const CompiledModel& model, const data::Dataset& holdout) {
  IOTML_CHECK(holdout.has_labels(), "deploy::holdout_accuracy: unlabeled holdout");
  IOTML_CHECK(holdout.rows() >= 1, "deploy::holdout_accuracy: empty holdout");
  DeviceRuntime runtime(model);
  runtime.bind(holdout);
  std::size_t correct = 0;
  for (std::size_t r = 0; r < holdout.rows(); ++r) {
    if (runtime.predict_row(holdout, r) == holdout.label(r)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(holdout.rows());
}

QuantizationReport quantize_with_report(const CompiledModel& model, Precision target,
                                        const data::Dataset& holdout,
                                        CompiledModel* quantized_out) {
  IOTML_CHECK(holdout.rows() > 0, "quantize_with_report: empty holdout");
  CompiledModel quantized = quantize(model, target);

  QuantizationReport report;
  report.precision = target;
  report.float32_bytes = model.size_bytes();
  report.quantized_bytes = quantized.size_bytes();
  report.footprint_ratio = static_cast<double>(report.float32_bytes) /
                           static_cast<double>(report.quantized_bytes);
  report.holdout_rows = holdout.rows();
  report.holdout_accuracy_float = holdout_accuracy(model, holdout);
  report.holdout_accuracy_quantized = holdout_accuracy(quantized, holdout);
  report.accuracy_delta_points =
      100.0 * (report.holdout_accuracy_quantized - report.holdout_accuracy_float);

  if (quantized_out != nullptr) *quantized_out = std::move(quantized);
  return report;
}

}  // namespace iotml::deploy
