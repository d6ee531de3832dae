#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "deploy/compiled_model.hpp"
#include "kernels/krr.hpp"
#include "learners/decision_tree.hpp"
#include "learners/logistic.hpp"
#include "learners/naive_bayes.hpp"

namespace iotml::deploy {

/// Binding schema of a dataset: column names, kinds and category
/// dictionaries, in column order. Pass the dataset the learner was fitted
/// on (or one that is schema-identical) so the artifact can be bound by
/// name on any device holding the same columns.
std::vector<FeatureSchema> schema_of(const data::Dataset& ds);

/// Lower a trained decision tree to the flat array-packed artifact.
/// `train` must be schema-identical to the fit dataset. Throws
/// InvalidArgument before fit(), on a schema mismatch, or when the tree
/// exceeds the format's limits (65535 nodes, 255 children per split,
/// 256 classes).
CompiledModel compile(const learners::DecisionTree& tree, const data::Dataset& train);

/// Lower trained logistic regression to a linear artifact. The training
/// standardization is folded into the weights and bias, and the per-feature
/// imputation value (training column mean) rides along, so devices score
/// raw, unstandardized rows — with missing cells — directly. Throws
/// InvalidArgument before fit() or on a schema mismatch.
CompiledModel compile(const learners::LogisticRegression& model,
                      const data::Dataset& train);

/// Lower trained naive Bayes to log-prior + per-feature likelihood tables.
/// Throws InvalidArgument before fit() or on a schema mismatch.
CompiledModel compile(const learners::NaiveBayes& model, const data::Dataset& train);

/// Lower linear-kernel KRR to a regression weight vector (w = X^T alpha).
/// `feature_names` labels the matrix columns for device-side binding.
/// Throws InvalidArgument before fit(), for non-linear kernels, or when
/// the name count does not match the trained dimension.
CompiledModel compile(const kernels::KernelRidge& model,
                      const std::vector<std::string>& feature_names);

/// Fit a fresh learner of `kind` (decision tree, logistic regression or
/// naive Bayes) on labeled `train` and lower it.
CompiledModel fit_and_compile(ModelKind kind, const data::Dataset& train);

/// fit_and_compile, then quantize to `precision` unless it is float32: the
/// artifact a deployment ships.
CompiledModel compile_artifact(ModelKind kind, Precision precision,
                               const data::Dataset& train);

}  // namespace iotml::deploy
