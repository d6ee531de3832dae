#pragma once

// Exhaustive reference for DecisionTree's split search. For every candidate
// split it re-partitions the node's rows and recounts labels through a
// std::map, so a node with n rows costs O(n^2) per numeric feature. The
// library's one-pass sweep must build the same tree bit for bit; tests
// compare the two through ExportedTreeNode.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "learners/decision_tree.hpp"

namespace iotml::learners::oracle {

/// The oracle's fit: pre-order nodes (element 0 is the root, the layout of
/// DecisionTree::export_nodes) plus the summary queries.
struct OracleTree {
  std::vector<ExportedTreeNode> nodes;
  int default_class = 0;
  std::size_t depth = 0;
  /// Rows visited by the split search: each feature's scan of a node's rows
  /// plus one re-partition of the present rows per numeric candidate.
  std::uint64_t rows_scanned = 0;
  // Coverage: how often the fit met the cases a faster search gets wrong.
  std::size_t tied_gains = 0;     ///< candidates that tied the best gain so far
  std::size_t ulp_midpoints = 0;  ///< numeric midpoints that rounded up to `hi`
  std::size_t refusals = 0;       ///< winners refused by min_samples_leaf
};

namespace detail {

inline double entropy_of_counts(const std::map<int, std::size_t>& counts, std::size_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const auto& [label, count] : counts) {
    const double p = static_cast<double>(count) / static_cast<double>(total);
    if (p > 0.0) h -= p * std::log2(p);
  }
  return h;
}

inline double label_entropy(const data::Dataset& ds, const std::vector<std::size_t>& rows) {
  std::map<int, std::size_t> counts;
  for (std::size_t r : rows) ++counts[ds.label(r)];
  return entropy_of_counts(counts, rows.size());
}

inline int majority_label(const data::Dataset& ds, const std::vector<std::size_t>& rows) {
  std::map<int, std::size_t> counts;
  for (std::size_t r : rows) ++counts[ds.label(r)];
  int best = 0;
  std::size_t best_count = 0;
  for (const auto& [label, count] : counts) {
    if (count > best_count) {
      best = label;
      best_count = count;
    }
  }
  return best;
}

inline bool is_pure(const data::Dataset& ds, const std::vector<std::size_t>& rows) {
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (ds.label(rows[i]) != ds.label(rows[0])) return false;
  }
  return true;
}

inline double weighted_child_entropy(const data::Dataset& ds,
                                     const std::vector<std::vector<std::size_t>>& buckets,
                                     std::size_t total) {
  double h = 0.0;
  for (const auto& bucket : buckets) {
    if (bucket.empty()) continue;
    h += (static_cast<double>(bucket.size()) / static_cast<double>(total)) *
         label_entropy(ds, bucket);
  }
  return h;
}

inline std::size_t attach_missing(std::vector<std::vector<std::size_t>>& children,
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

struct SplitCandidate {
  double gain = -1.0;
  std::size_t feature = 0;
  bool numeric = false;
  double threshold = 0.0;
  std::vector<std::vector<std::size_t>> child_rows;
  std::size_t missing_child = 0;
};

/// Grow the subtree over `rows` and append it to `tree.nodes` in pre-order;
/// returns the subtree root's index.
inline std::size_t grow(const data::Dataset& ds, const DecisionTreeParams& params,
                        const std::vector<std::size_t>& rows, std::size_t depth,
                        OracleTree& tree) {
  const std::size_t id = tree.nodes.size();
  tree.nodes.emplace_back();
  tree.nodes[id].label = majority_label(ds, rows);
  tree.depth = std::max(tree.depth, depth + 1);
  if (depth >= params.max_depth || rows.size() < 2 * params.min_samples_leaf ||
      is_pure(ds, rows)) {
    return id;
  }

  const double parent_entropy = label_entropy(ds, rows);
  SplitCandidate best;
  for (std::size_t f = 0; f < ds.num_columns(); ++f) {
    const data::Column& col = ds.column(f);
    std::vector<std::size_t> missing_rows;
    tree.rows_scanned += rows.size();

    if (col.type() == data::ColumnType::kCategorical) {
      std::vector<std::vector<std::size_t>> buckets(col.categories().size());
      for (std::size_t r : rows) {
        if (col.is_missing(r)) {
          missing_rows.push_back(r);
        } else {
          buckets[col.category(r)].push_back(r);
        }
      }
      const auto nonempty = std::count_if(buckets.begin(), buckets.end(),
                                          [](const auto& b) { return !b.empty(); });
      if (nonempty < 2) continue;
      const std::size_t missing_child = attach_missing(buckets, missing_rows, params.missing);
      const double gain = parent_entropy - weighted_child_entropy(ds, buckets, rows.size());
      if (gain == best.gain) ++tree.tied_gains;
      if (gain > best.gain) {
        best = SplitCandidate{gain, f, false, 0.0, std::move(buckets), missing_child};
      }
    } else {
      std::vector<std::size_t> present;
      for (std::size_t r : rows) {
        if (col.is_missing(r)) {
          missing_rows.push_back(r);
        } else {
          present.push_back(r);
        }
      }
      if (present.size() < 2) continue;
      std::sort(present.begin(), present.end(), [&](std::size_t a, std::size_t b) {
        return col.numeric(a) < col.numeric(b);
      });
      for (std::size_t i = 1; i < present.size(); ++i) {
        const double lo = col.numeric(present[i - 1]);
        const double hi = col.numeric(present[i]);
        if (hi <= lo) continue;
        const double threshold = 0.5 * (lo + hi);
        if (threshold == hi) ++tree.ulp_midpoints;
        std::vector<std::vector<std::size_t>> children(2);
        for (std::size_t r : present) {
          children[col.numeric(r) <= threshold ? 0 : 1].push_back(r);
        }
        tree.rows_scanned += present.size();
        const std::size_t missing_child =
            attach_missing(children, missing_rows, params.missing);
        const double gain = parent_entropy - weighted_child_entropy(ds, children, rows.size());
        if (gain == best.gain) ++tree.tied_gains;
        if (gain > best.gain) {
          best = SplitCandidate{gain, f, true, threshold, children, missing_child};
        }
      }
    }
  }

  if (best.gain < params.min_gain) return id;
  for (const auto& child : best.child_rows) {
    if (!child.empty() && child.size() < params.min_samples_leaf) {
      ++tree.refusals;
      return id;
    }
  }

  ExportedTreeNode& node = tree.nodes[id];
  node.leaf = false;
  node.feature = best.feature;
  node.numeric = best.numeric;
  node.threshold = best.threshold;
  node.missing_slot = best.missing_child;
  node.children.assign(best.child_rows.size(), ExportedTreeNode::kNoNode);
  for (std::size_t i = 0; i < best.child_rows.size(); ++i) {
    if (best.child_rows[i].empty()) continue;
    const std::size_t child = grow(ds, params, best.child_rows[i], depth + 1, tree);
    tree.nodes[id].children[i] = child;  // `node` may dangle after grow()
  }
  return id;
}

}  // namespace detail

/// Fit the exhaustive reference tree on every row of `train`.
inline OracleTree fit(const data::Dataset& train, const DecisionTreeParams& params) {
  std::vector<std::size_t> rows(train.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  OracleTree tree;
  tree.default_class = detail::majority_label(train, rows);
  detail::grow(train, params, rows, 0, tree);
  return tree;
}

}  // namespace iotml::learners::oracle
