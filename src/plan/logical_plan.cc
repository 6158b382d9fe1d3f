#include "plan/logical_plan.h"

#include <algorithm>

#include "common/check.h"

namespace sparkopt {

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kScan: return "Scan";
    case OpType::kFilter: return "Filter";
    case OpType::kProject: return "Project";
    case OpType::kJoin: return "Join";
    case OpType::kAggregate: return "Aggregate";
    case OpType::kSort: return "Sort";
    case OpType::kLimit: return "Limit";
    case OpType::kUnion: return "Union";
    default: return "?";
  }
}

int LogicalPlan::AddOperator(LogicalOperator op) {
  op.id = static_cast<int>(ops_.size());
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

Status LogicalPlan::Build() {
  const int n = static_cast<int>(ops_.size());
  if (n == 0) return Status::InvalidArgument("empty plan");
  parents_.assign(n, {});
  for (const auto& op : ops_) {
    for (int c : op.children) {
      if (c < 0 || c >= n) {
        return Status::InvalidArgument("operator " + std::to_string(op.id) +
                                       " references invalid child " +
                                       std::to_string(c));
      }
      if (c == op.id) {
        return Status::InvalidArgument("operator is its own child");
      }
      parents_[c].push_back(op.id);
    }
  }
  // Root: the unique operator with no parents.
  root_ = -1;
  for (int i = 0; i < n; ++i) {
    if (parents_[i].empty()) {
      if (root_ != -1) {
        return Status::InvalidArgument("plan has multiple roots");
      }
      root_ = i;
    }
  }
  if (root_ == -1) return Status::InvalidArgument("plan has a cycle (no root)");

  // Kahn topological sort (children before parents).
  std::vector<int> in_deg(n, 0);
  for (const auto& op : ops_) {
    in_deg[op.id] = static_cast<int>(op.children.size());
  }
  topo_.clear();
  std::vector<int> frontier;
  for (int i = 0; i < n; ++i) {
    if (in_deg[i] == 0) frontier.push_back(i);
  }
  // Deterministic order: smallest id first.
  std::sort(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.erase(frontier.begin());
    topo_.push_back(u);
    for (int p : parents_[u]) {
      if (--in_deg[p] == 0) {
        frontier.insert(
            std::upper_bound(frontier.begin(), frontier.end(), p), p);
      }
    }
  }
  if (static_cast<int>(topo_.size()) != n) {
    return Status::InvalidArgument("plan has a cycle");
  }
  return Status::OK();
}

std::vector<SubQuery> LogicalPlan::DecomposeSubQueries() const {
  std::vector<int> subq_of(ops_.size(), -1);
  std::vector<SubQuery> subqs;

  auto starts_new_subq = [](const LogicalOperator& op) {
    return op.type == OpType::kScan || op.requires_shuffle;
  };

  for (int id : topo_) {
    const auto& op = ops_[id];
    if (starts_new_subq(op) || op.children.empty()) {
      SubQuery sq;
      sq.id = static_cast<int>(subqs.size());
      subqs.push_back(sq);
      subq_of[id] = subqs.back().id;
    } else {
      // Pipeline into the subQ of the first (primary) child. For
      // multi-child non-shuffle operators the primary child carries the
      // partitioning; other children contribute dependencies below.
      subq_of[id] = subq_of[op.children.front()];
    }
    auto& sq = subqs[subq_of[id]];
    sq.op_ids.push_back(id);
    sq.root_op = id;
    if (op.type == OpType::kScan) sq.has_scan = true;
    if (op.type == OpType::kJoin) sq.has_join = true;
  }

  // Dependencies: subQ A depends on subQ B when some op in A has a child
  // in B (A != B).
  for (const auto& op : ops_) {
    const int a = subq_of[op.id];
    for (int c : op.children) {
      const int b = subq_of[c];
      if (a != b) {
        auto& deps = subqs[a].deps;
        if (std::find(deps.begin(), deps.end(), b) == deps.end()) {
          deps.push_back(b);
        }
      }
    }
  }
  for (auto& sq : subqs) std::sort(sq.deps.begin(), sq.deps.end());
  return subqs;
}

std::vector<int> LogicalPlan::SubQueryOfOp(
    const std::vector<SubQuery>& subqs) const {
  std::vector<int> subq_of(ops_.size(), -1);
  for (const auto& sq : subqs) {
    for (int op : sq.op_ids) subq_of[op] = sq.id;
  }
  for (size_t i = 0; i < subq_of.size(); ++i) {
    SPARKOPT_DCHECK_GE(subq_of[i], 0)
        << "op " << i << " is not covered by the subQ decomposition";
  }
  return subq_of;
}

int LogicalPlan::CountOps(OpType t) const {
  int n = 0;
  for (const auto& op : ops_) {
    if (op.type == t) ++n;
  }
  return n;
}

}  // namespace sparkopt
