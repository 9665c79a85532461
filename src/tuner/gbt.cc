#include "tuner/gbt.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "support/check.h"
#include "support/parallel.h"

namespace alcop {
namespace tuner {

namespace {

// One binary regression tree stored as a flat node array.
struct TreeNode {
  int feature = -1;       // -1 for leaves
  double threshold = 0.0;  // go left if x[feature] <= threshold
  double value = 0.0;      // leaf prediction
  int left = -1;
  int right = -1;
};

struct Tree {
  std::vector<TreeNode> nodes;

  double Predict(const std::vector<double>& x) const {
    int node = 0;
    while (nodes[static_cast<size_t>(node)].feature >= 0) {
      const TreeNode& n = nodes[static_cast<size_t>(node)];
      node = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
    }
    return nodes[static_cast<size_t>(node)].value;
  }
};

// The training matrix, prepared once per Fit and shared by every boosting
// round: `x` column-major, each feature's rows sorted by (value, row), and
// the features that vary at all (a constant feature has no split).
struct Columns {
  std::vector<std::vector<double>> x;    // x[f][row]
  std::vector<std::vector<int>> sorted;  // rows by (x[f][row], row)
  std::vector<size_t> varying;
};

Columns PrepareColumns(const std::vector<std::vector<double>>& rows) {
  size_t n = rows.size();
  size_t num_features = rows[0].size();
  Columns columns;
  columns.x.assign(num_features, std::vector<double>(n));
  columns.sorted.assign(num_features, std::vector<int>(n));
  std::vector<std::pair<double, int>> keyed(n);
  for (size_t f = 0; f < num_features; ++f) {
    for (size_t row = 0; row < n; ++row) {
      columns.x[f][row] = rows[row][f];
      keyed[row] = {rows[row][f], static_cast<int>(row)};
    }
    std::sort(keyed.begin(), keyed.end());
    for (size_t i = 0; i < n; ++i) columns.sorted[f][i] = keyed[i].second;
    if (keyed.front().first != keyed.back().first) columns.varying.push_back(f);
  }
  return columns;
}

struct Split {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
  // The left child is the first `left_count` rows of the node in the
  // feature's order (splits fall only between distinct values, so that
  // prefix is exactly the x <= threshold set).
  size_t left_count = 0;
};

// Node totals and the split-search constants, shared by every feature.
struct NodeStats {
  size_t count = 0;
  double g = 0.0, h = 0.0;
  double parent_loss = 0.0;
};

// Best split along one feature: prefix scan of gradient/hessian over the
// node's rows in (value, row) order.
Split BestSplitForFeature(const int* rows, const std::vector<double>& x,
                          size_t f, const NodeStats& node,
                          const std::vector<double>& grad,
                          const std::vector<double>& weight, size_t min_leaf,
                          double l2) {
  Split best;
  if (x[static_cast<size_t>(rows[0])] ==
      x[static_cast<size_t>(rows[node.count - 1])]) {
    return best;  // one value across the node: nowhere to split
  }
  double gl = 0.0, hl = 0.0;
  double x_last = x[static_cast<size_t>(rows[0])];
  for (size_t i = 0; i < node.count; ++i) {
    size_t row = static_cast<size_t>(rows[i]);
    double x_here = x[row];
    // Candidate between the previous row and this one; gl/hl cover the
    // i rows before it.
    if (x_here != x_last && i >= min_leaf && node.count - i >= min_leaf) {
      double gr = node.g - gl, hr = node.h - hl;
      double loss = -(gl * gl) / (hl + l2) - (gr * gr) / (hr + l2);
      double gain = node.parent_loss - loss;
      if (gain > best.gain + 1e-12) {
        best.gain = gain;
        best.feature = static_cast<int>(f);
        best.threshold = 0.5 * (x_last + x_here);
        best.left_count = i;
      }
    }
    gl += grad[row];
    hl += weight[row];
    x_last = x_here;
  }
  return best;
}

// A node of the level being grown: its rows are [begin, begin + count) of
// every feature's order, sorted by that feature.
struct Segment {
  int index = 0;  // into Tree::nodes
  size_t begin = 0;
  size_t count = 0;
};

// Level-wise exact greedy over presorted columns. `order[f]` holds the
// rows grouped by node and, within a node, in (value, row) order, so each
// node's prefix sums, the 1e-12 tie rule (within a feature, then across
// features in index order), thresholds and leaf values do not depend on
// the order nodes are grown in. A level's splits stably partition each
// node's range (through `spare`), so children inherit sorted orders
// without a sort or an allocation.
Tree BuildTree(const Columns& columns, const std::vector<double>& grad,
               const std::vector<double>& weight,
               std::vector<std::vector<int>>& order,
               std::vector<std::vector<int>>& spare,
               std::vector<uint8_t>& goes_left, const GbtParams& params) {
  // Feature 0 orders the node totals; the varying features are searched.
  std::vector<size_t> kept = columns.varying;
  if (kept.empty() || kept[0] != 0) kept.insert(kept.begin(), 0);
  for (size_t f : kept) order[f] = columns.sorted[f];

  Tree tree;
  tree.nodes.emplace_back();
  size_t min_leaf = static_cast<size_t>(params.min_samples_leaf);
  std::vector<Segment> level = {{0, 0, columns.sorted[0].size()}};
  for (int depth = 0; !level.empty(); ++depth) {
    std::vector<Segment> next;  // children in pairs, in their parents' order
    for (const Segment& segment : level) {
      NodeStats node;
      node.count = segment.count;
      const int* rows0 = order[0].data() + segment.begin;
      for (size_t i = 0; i < node.count; ++i) {
        node.g += grad[static_cast<size_t>(rows0[i])];
        node.h += weight[static_cast<size_t>(rows0[i])];
      }
      Split best;
      if (depth < params.max_depth && node.count >= 2 * min_leaf) {
        node.parent_loss = -(node.g * node.g) / (node.h + params.l2);
        for (size_t f : columns.varying) {
          Split candidate = BestSplitForFeature(
              order[f].data() + segment.begin, columns.x[f], f, node, grad,
              weight, min_leaf, params.l2);
          if (candidate.gain > best.gain + 1e-12) best = candidate;
        }
      }
      TreeNode& tree_node = tree.nodes[static_cast<size_t>(segment.index)];
      if (best.feature < 0) {
        tree_node.value = node.g / (node.h + params.l2);
        continue;
      }
      int left = static_cast<int>(tree.nodes.size());
      tree_node.feature = best.feature;
      tree_node.threshold = best.threshold;
      tree_node.left = left;
      tree_node.right = left + 1;
      tree.nodes.resize(tree.nodes.size() + 2);  // invalidates tree_node
      const int* split_rows =
          order[static_cast<size_t>(best.feature)].data() + segment.begin;
      for (size_t i = 0; i < segment.count; ++i) {
        goes_left[static_cast<size_t>(split_rows[i])] = i < best.left_count;
      }
      next.push_back({left, segment.begin, best.left_count});
      next.push_back({left + 1, segment.begin + best.left_count,
                      segment.count - best.left_count});
    }
    if (next.empty()) break;
    // Children at max_depth are leaves and need only the totals order.
    if (depth + 1 >= params.max_depth) kept.resize(1);
    for (size_t f : kept) {
      const int* in = order[f].data();
      int* out = spare[f].data();
      for (size_t child = 0; child < next.size(); child += 2) {
        size_t left = next[child].begin;
        size_t right = next[child + 1].begin;
        size_t end = right + next[child + 1].count;
        for (size_t i = left; i < end; ++i) {
          // Branch-free: which side a row takes is unpredictable.
          size_t to_left = goes_left[static_cast<size_t>(in[i])];
          size_t mask = 0 - to_left;
          out[(left & mask) | (right & ~mask)] = in[i];
          left += to_left;
          right += 1 - to_left;
        }
      }
      std::swap(order[f], spare[f]);
    }
    level = std::move(next);
  }
  return tree;
}

}  // namespace

struct GbtModel::Impl {
  GbtParams params;
  double base = 0.0;
  std::vector<Tree> trees;
  bool fitted = false;
};

GbtModel::GbtModel(GbtParams params) : impl_(std::make_unique<Impl>()) {
  impl_->params = params;
}
GbtModel::~GbtModel() = default;
GbtModel::GbtModel(GbtModel&&) noexcept = default;
GbtModel& GbtModel::operator=(GbtModel&&) noexcept = default;

void GbtModel::Fit(const std::vector<std::vector<double>>& x,
                   const std::vector<double>& y,
                   const std::vector<double>& weights) {
  ALCOP_CHECK(!x.empty()) << "cannot fit GBT on empty data";
  ALCOP_CHECK(!x[0].empty()) << "cannot fit GBT without features";
  ALCOP_CHECK_EQ(x.size(), y.size());
  for (const auto& row : x) {
    ALCOP_CHECK_EQ(row.size(), x[0].size()) << "ragged feature rows";
  }

  std::vector<double> weight =
      weights.empty() ? std::vector<double>(x.size(), 1.0) : weights;
  ALCOP_CHECK_EQ(weight.size(), x.size());

  // Base prediction: weighted mean.
  double sum = 0.0, wsum = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    sum += weight[i] * y[i];
    wsum += weight[i];
  }
  impl_->base = sum / wsum;
  impl_->trees.clear();

  std::vector<double> prediction(y.size(), impl_->base);
  std::vector<double> grad(y.size());
  Columns columns = PrepareColumns(x);
  std::vector<std::vector<int>> order(columns.sorted.size());
  std::vector<std::vector<int>> spare(columns.sorted.size(),
                                      std::vector<int>(x.size()));
  std::vector<uint8_t> goes_left(x.size());

  for (int round = 0; round < impl_->params.num_trees; ++round) {
    for (size_t i = 0; i < y.size(); ++i) {
      grad[i] = weight[i] * (y[i] - prediction[i]);
    }
    Tree tree = BuildTree(columns, grad, weight, order, spare, goes_left,
                          impl_->params);
    // Stop early if the tree is a pure leaf contributing nothing.
    bool useful = tree.nodes.size() > 1 ||
                  std::abs(tree.nodes[0].value) > 1e-12;
    if (!useful) break;
    for (size_t i = 0; i < y.size(); ++i) {
      prediction[i] += impl_->params.learning_rate * tree.Predict(x[i]);
    }
    impl_->trees.push_back(std::move(tree));
  }
  impl_->fitted = true;
}

double GbtModel::Predict(const std::vector<double>& features) const {
  ALCOP_CHECK(impl_->fitted) << "GBT model queried before Fit";
  double out = impl_->base;
  for (const Tree& tree : impl_->trees) {
    out += impl_->params.learning_rate * tree.Predict(features);
  }
  return out;
}

std::vector<double> GbtModel::PredictBatch(
    const std::vector<std::vector<double>>& rows) const {
  ALCOP_CHECK(impl_->fitted) << "GBT model queried before Fit";
  return support::ParallelMap(rows.size(),
                              [&](size_t i) { return Predict(rows[i]); });
}

bool GbtModel::IsFitted() const { return impl_->fitted; }

}  // namespace tuner
}  // namespace alcop
