#include "learners/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::learners {

/// Internal node. Numeric splits: children[0] = (value <= threshold),
/// children[1] = (value > threshold). Categorical splits: one child per
/// category index (children may be null for unseen categories -> leaf
/// fallback). `missing_child` routes rows whose split feature is missing.
struct DecisionTree::Node {
  bool leaf = true;
  int label = 0;

  std::size_t feature = 0;
  bool numeric = false;
  double threshold = 0.0;
  std::vector<std::unique_ptr<Node>> children;
  std::size_t missing_child = 0;

  std::size_t count_nodes() const {
    std::size_t total = 1;
    for (const auto& c : children) {
      if (c) total += c->count_nodes();
    }
    return total;
  }
  std::size_t max_depth() const {
    std::size_t deepest = 0;
    for (const auto& c : children) {
      if (c) deepest = std::max(deepest, c->max_depth());
    }
    return deepest + 1;
  }
};

DecisionTree::DecisionTree(DecisionTreeParams params) : params_(params) {
  IOTML_CHECK(params.max_depth >= 1, "DecisionTree: max_depth must be >= 1");
  IOTML_CHECK(params.min_samples_leaf >= 1, "DecisionTree: min_samples_leaf must be >= 1");
}

DecisionTree::~DecisionTree() = default;
DecisionTree::DecisionTree(DecisionTree&&) noexcept = default;
DecisionTree& DecisionTree::operator=(DecisionTree&&) noexcept = default;

namespace {

/// Shannon entropy of `total` rows whose label histogram is `counts` (plus
/// `extra` when non-null), indexed by dense label rank. Ranks ascend with
/// the label and zero counts are skipped, so the float operations and their
/// order are those of a sum over a label-keyed std::map — every gain, and so
/// every tie-break, is the same as a per-row recount would give.
double entropy_of_counts(const std::size_t* counts, const std::size_t* extra,
                         std::size_t ranks, std::size_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (std::size_t k = 0; k < ranks; ++k) {
    const std::size_t count = counts[k] + (extra != nullptr ? extra[k] : 0);
    if (count == 0) continue;
    const double p = static_cast<double>(count) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

/// Index of the first largest entry of `sizes` (ties go to the lowest index).
std::size_t first_largest(const std::vector<std::size_t>& sizes) {
  std::size_t largest = 0;
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    if (sizes[i] > sizes[largest]) largest = i;
  }
  return largest;
}

/// Append missing rows either to the largest child or to a dedicated child,
/// returning the index of the child that absorbs future missing values.
std::size_t attach_missing(std::vector<std::vector<std::size_t>>& children,
                           std::vector<std::size_t> missing_rows,
                           MissingSplitPolicy policy) {
  if (policy == MissingSplitPolicy::kOwnBranch && !missing_rows.empty()) {
    children.push_back(std::move(missing_rows));
    return children.size() - 1;
  }
  std::size_t largest = 0;
  for (std::size_t i = 1; i < children.size(); ++i) {
    if (children[i].size() > children[largest].size()) largest = i;
  }
  children[largest].insert(children[largest].end(), missing_rows.begin(),
                           missing_rows.end());
  return largest;
}

/// Best split found so far at one node.
struct SplitCandidate {
  bool found = false;
  double gain = -1.0;
  std::size_t feature = 0;
  bool numeric = false;
  double threshold = 0.0;
};

/// Partition `rows` into the children of `split` — numeric: (value <=
/// threshold, value > threshold); categorical: one bucket per category —
/// and attach the missing rows per `policy`. Returns the missing child.
std::size_t partition(const data::Dataset& ds, const SplitCandidate& split,
                      const std::vector<std::size_t>& rows, MissingSplitPolicy policy,
                      std::vector<std::vector<std::size_t>>& children) {
  const data::Column& col = ds.column(split.feature);
  children.assign(split.numeric ? 2 : col.categories().size(), {});
  std::vector<std::size_t> missing_rows;
  for (std::size_t r : rows) {
    if (col.is_missing(r)) {
      missing_rows.push_back(r);
    } else if (split.numeric) {
      children[col.numeric(r) <= split.threshold ? 0 : 1].push_back(r);
    } else {
      children[col.category(r)].push_back(r);
    }
  }
  return attach_missing(children, std::move(missing_rows), policy);
}

}  // namespace

/// One fit's split search. Labels are mapped once to dense ranks in
/// ascending label order; each node then scores every candidate split from
/// per-rank counts in one pass over its rows per feature (plus a sort for
/// numeric features), and materializes row lists only for the winner.
class DecisionTree::Builder {
 public:
  Builder(const DecisionTreeParams& params, const data::Dataset& ds)
      : params_(params), ds_(ds), rank_(ds.rows()) {
    label_of_rank_ = ds.labels();
    std::sort(label_of_rank_.begin(), label_of_rank_.end());
    label_of_rank_.erase(std::unique(label_of_rank_.begin(), label_of_rank_.end()),
                         label_of_rank_.end());
    for (std::size_t r = 0; r < rank_.size(); ++r) {
      rank_[r] = static_cast<std::uint32_t>(
          std::lower_bound(label_of_rank_.begin(), label_of_rank_.end(), ds.label(r)) -
          label_of_rank_.begin());
    }
    missing_.resize(ranks());
  }

  /// Majority label of `rows` (ties go to the smallest label).
  int majority_label(const std::vector<std::size_t>& rows) const {
    return label_of_rank_[first_largest(label_counts(rows))];
  }

  std::unique_ptr<Node> build(const std::vector<std::size_t>& rows, std::size_t depth) {
    auto node = std::make_unique<Node>();
    const std::vector<std::size_t> counts = label_counts(rows);
    node->label = label_of_rank_[first_largest(counts)];
    const bool pure = std::count_if(counts.begin(), counts.end(),
                                    [](std::size_t c) { return c > 0; }) <= 1;
    if (depth >= params_.max_depth || rows.size() < 2 * params_.min_samples_leaf || pure) {
      return node;
    }

    static obs::Counter& rows_scanned = obs::registry().counter("learners.split_rows_scanned");
    const double parent_entropy =
        entropy_of_counts(counts.data(), nullptr, ranks(), rows.size());
    SplitCandidate best;
    for (std::size_t f = 0; f < ds_.num_columns(); ++f) {
      rows_scanned.add(rows.size());
      if (ds_.column(f).type() == data::ColumnType::kCategorical) {
        sweep_categorical(f, rows, parent_entropy, best);
      } else {
        sweep_numeric(f, rows, parent_entropy, best);
      }
    }

    if (best.gain < params_.min_gain) return node;
    std::vector<std::vector<std::size_t>> child_rows;
    std::size_t missing_child = 0;
    if (best.found) missing_child = partition(ds_, best, rows, params_.missing, child_rows);
    // Refuse splits that produce an undersized nonempty child.
    for (const auto& child : child_rows) {
      if (!child.empty() && child.size() < params_.min_samples_leaf) return node;
    }

    static obs::Counter& tree_splits = obs::registry().counter("learners.tree_splits");
    tree_splits.add();
    node->leaf = false;
    node->feature = best.feature;
    node->numeric = best.numeric;
    node->threshold = best.threshold;
    node->missing_child = missing_child;
    node->children.resize(child_rows.size());
    for (std::size_t i = 0; i < child_rows.size(); ++i) {
      if (!child_rows[i].empty()) node->children[i] = build(child_rows[i], depth + 1);
    }
    return node;
  }

 private:
  const DecisionTreeParams& params_;
  const data::Dataset& ds_;
  std::vector<int> label_of_rank_;   ///< distinct labels, ascending
  std::vector<std::uint32_t> rank_;  ///< per row: index into label_of_rank_
  // Per-feature work buffers, reused across nodes (never live across recursion).
  std::vector<std::pair<double, std::uint32_t>> present_;  ///< (value, rank)
  std::vector<std::size_t> counts_;  ///< child-major per-rank counts
  std::vector<std::size_t> sizes_;   ///< rows per child
  std::vector<std::size_t> missing_;  ///< per-rank counts of missing cells
  std::size_t missing_rows_ = 0;

  std::size_t ranks() const noexcept { return label_of_rank_.size(); }

  std::vector<std::size_t> label_counts(const std::vector<std::size_t>& rows) const {
    std::vector<std::size_t> counts(ranks(), 0);
    for (std::size_t r : rows) ++counts[rank_[r]];
    return counts;
  }

  /// Weighted entropy of the split held in counts_/sizes_, with the missing
  /// rows placed as attach_missing() would place them: in a last child of
  /// their own under kOwnBranch, otherwise in the first largest child.
  double split_entropy(std::size_t total) const {
    const std::size_t n = sizes_.size();
    const std::size_t target =
        params_.missing == MissingSplitPolicy::kOwnBranch && missing_rows_ > 0
            ? n
            : first_largest(sizes_);
    double h = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const bool merged = c == target;
      const std::size_t size = sizes_[c] + (merged ? missing_rows_ : 0);
      if (size == 0) continue;
      h += (static_cast<double>(size) / static_cast<double>(total)) *
           entropy_of_counts(counts_.data() + c * ranks(), merged ? missing_.data() : nullptr,
                             ranks(), size);
    }
    if (target == n) {
      h += (static_cast<double>(missing_rows_) / static_cast<double>(total)) *
           entropy_of_counts(missing_.data(), nullptr, ranks(), missing_rows_);
    }
    return h;
  }

  void consider(SplitCandidate candidate, double parent_entropy, std::size_t total,
                SplitCandidate& best) const {
    candidate.gain = parent_entropy - split_entropy(total);
    if (candidate.gain > best.gain) best = candidate;
  }

  /// Multiway split: one child per category of the column's dictionary.
  void sweep_categorical(std::size_t f, const std::vector<std::size_t>& rows,
                         double parent_entropy, SplitCandidate& best) {
    const data::Column& col = ds_.column(f);
    const std::vector<double>& raw = col.raw();
    const std::size_t categories = col.categories().size();
    counts_.assign(categories * ranks(), 0);
    sizes_.assign(categories, 0);
    std::fill(missing_.begin(), missing_.end(), 0);
    missing_rows_ = 0;
    for (std::size_t r : rows) {
      if (col.is_missing(r)) {
        ++missing_[rank_[r]];
        ++missing_rows_;
      } else {
        const auto c = static_cast<std::size_t>(raw[r]);
        ++counts_[c * ranks() + rank_[r]];
        ++sizes_[c];
      }
    }
    if (std::count_if(sizes_.begin(), sizes_.end(), [](std::size_t s) { return s > 0; }) < 2) {
      return;
    }
    consider(SplitCandidate{true, 0.0, f, false, 0.0}, parent_entropy, rows.size(), best);
  }

  /// Binary split at each midpoint between distinct neighbouring values, in
  /// ascending order. The (value <= threshold) side is tracked with a cut
  /// pointer rather than the candidate's index: a midpoint between
  /// adjacent doubles can round up to the upper value, which then joins
  /// the left side.
  void sweep_numeric(std::size_t f, const std::vector<std::size_t>& rows,
                     double parent_entropy, SplitCandidate& best) {
    const data::Column& col = ds_.column(f);
    const std::vector<double>& raw = col.raw();
    present_.clear();
    counts_.assign(2 * ranks(), 0);  // [left ranks | right ranks]
    std::fill(missing_.begin(), missing_.end(), 0);
    missing_rows_ = 0;
    std::size_t* left = counts_.data();
    std::size_t* right = counts_.data() + ranks();
    for (std::size_t r : rows) {
      if (col.is_missing(r)) {
        ++missing_[rank_[r]];
        ++missing_rows_;
      } else {
        present_.emplace_back(raw[r], rank_[r]);
        ++right[rank_[r]];
      }
    }
    const std::size_t n = present_.size();
    if (n < 2) return;
    std::sort(present_.begin(), present_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    sizes_.assign({0, n});
    std::size_t cut = 0;  // present_[0, cut) holds the values <= threshold
    for (std::size_t i = 1; i < n; ++i) {
      const double lo = present_[i - 1].first;
      const double hi = present_[i].first;
      if (hi <= lo) continue;
      const double threshold = 0.5 * (lo + hi);
      for (; cut < n && present_[cut].first <= threshold; ++cut) {
        ++left[present_[cut].second];
        --right[present_[cut].second];
      }
      sizes_[0] = cut;
      sizes_[1] = n - cut;
      consider(SplitCandidate{true, 0.0, f, true, threshold}, parent_entropy, rows.size(),
               best);
    }
  }
};

void DecisionTree::fit(const data::Dataset& train) {
  static obs::Counter& tree_fits = obs::registry().counter("learners.tree_fits");
  tree_fits.add();
  train.validate();
  IOTML_CHECK(train.has_labels(), "DecisionTree::fit: unlabeled dataset");
  IOTML_CHECK(train.rows() >= 1, "DecisionTree::fit: empty dataset");
  std::vector<std::size_t> rows(train.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  Builder builder(params_, train);
  default_class_ = builder.majority_label(rows);
  train_categories_.assign(train.num_columns(), {});
  for (std::size_t f = 0; f < train.num_columns(); ++f) {
    if (train.column(f).type() == data::ColumnType::kCategorical) {
      train_categories_[f] = train.column(f).categories();
    }
  }
  root_ = builder.build(rows, 0);
}

int DecisionTree::predict_row(const data::Dataset& ds, std::size_t row) const {
  IOTML_CHECK(root_ != nullptr, "DecisionTree::predict_row: call fit() first");
  const Node* node = root_.get();
  while (!node->leaf) {
    const data::Column& col = ds.column(node->feature);
    std::size_t child;
    if (col.is_missing(row)) {
      child = node->missing_child;
    } else if (node->numeric) {
      child = col.numeric(row) <= node->threshold ? 0 : 1;
    } else {
      // Map the cell's label to the training-time category index; unseen
      // labels fall through to the local-majority return below.
      const std::string& label = col.category_label(row);
      const auto& cats = train_categories_[node->feature];
      const auto it = std::find(cats.begin(), cats.end(), label);
      child = it == cats.end() ? cats.size() : static_cast<std::size_t>(it - cats.begin());
    }
    if (child >= node->children.size() || !node->children[child]) {
      return node->label;  // unseen category or empty branch: local majority
    }
    node = node->children[child].get();
  }
  return node->label;
}

std::size_t DecisionTree::flatten(const Node& node,
                                  std::vector<ExportedTreeNode>& out) const {
  const std::size_t id = out.size();
  out.emplace_back();
  out[id].leaf = node.leaf;
  out[id].label = node.label;
  out[id].feature = node.feature;
  out[id].numeric = node.numeric;
  out[id].threshold = node.threshold;
  out[id].missing_slot = node.missing_child;
  out[id].children.assign(node.children.size(), ExportedTreeNode::kNoNode);
  for (std::size_t c = 0; c < node.children.size(); ++c) {
    if (node.children[c]) out[id].children[c] = flatten(*node.children[c], out);
  }
  return id;
}

std::vector<ExportedTreeNode> DecisionTree::export_nodes() const {
  IOTML_CHECK(root_ != nullptr, "DecisionTree::export_nodes: call fit() first");
  std::vector<ExportedTreeNode> out;
  flatten(*root_, out);
  return out;
}

std::size_t DecisionTree::node_count() const {
  return root_ ? root_->count_nodes() : 0;
}

std::size_t DecisionTree::depth() const { return root_ ? root_->max_depth() : 0; }

}  // namespace iotml::learners
