#include "fd/oracle.h"

#include <algorithm>

#include "util/str.h"

namespace lakefuzz {
namespace {

/// Join-consistency of a subset: every column has at most one distinct
/// non-null code. Fills `merged` on success.
bool SubsetConsistent(const FdProblem& problem,
                      const std::vector<uint32_t>& subset,
                      std::vector<uint32_t>* merged) {
  merged->assign(problem.num_columns(), FdProblem::kNullCode);
  for (uint32_t tid : subset) {
    const uint32_t* row = problem.CodeRow(tid);
    for (size_t c = 0; c < problem.num_columns(); ++c) {
      if (row[c] == FdProblem::kNullCode) continue;
      if ((*merged)[c] == FdProblem::kNullCode) {
        (*merged)[c] = row[c];
      } else if ((*merged)[c] != row[c]) {
        return false;
      }
    }
  }
  return true;
}

/// Connectivity of a subset under "shares an equal non-null value".
bool SubsetConnected(const FdProblem& problem,
                     const std::vector<uint32_t>& subset) {
  if (subset.size() <= 1) return true;
  auto share_value = [&](uint32_t a, uint32_t b) {
    const uint32_t* ra = problem.CodeRow(a);
    const uint32_t* rb = problem.CodeRow(b);
    for (size_t c = 0; c < problem.num_columns(); ++c) {
      if (ra[c] != FdProblem::kNullCode && ra[c] == rb[c]) return true;
    }
    return false;
  };
  // BFS from subset[0] over the pairwise share-value graph.
  std::vector<char> visited(subset.size(), 0);
  std::vector<size_t> frontier{0};
  visited[0] = 1;
  size_t reached = 1;
  while (!frontier.empty()) {
    size_t i = frontier.back();
    frontier.pop_back();
    for (size_t j = 0; j < subset.size(); ++j) {
      if (visited[j] || !share_value(subset[i], subset[j])) continue;
      visited[j] = 1;
      ++reached;
      frontier.push_back(j);
    }
  }
  return reached == subset.size();
}

}  // namespace

Result<std::vector<FdResultTuple>> NaiveFdOracle(const FdProblem& input,
                                                 size_t max_tuples) {
  const size_t n = input.num_tuples();
  if (n > max_tuples) {
    return Status::InvalidArgument(
        StrFormat("oracle limited to %zu tuples, got %zu", max_tuples, n));
  }
  // Code rows and the decoding dictionary exist once the index is built;
  // a private copy keeps the caller's problem untouched.
  FdProblem problem = input;
  problem.BuildIndex();
  std::vector<FdResultTuple> results;
  std::vector<uint32_t> merged;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    std::vector<uint32_t> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) subset.push_back(static_cast<uint32_t>(i));
    }
    // At most one tuple per relation in an FD set.
    bool table_repeat = false;
    for (size_t i = 0; i < subset.size() && !table_repeat; ++i) {
      for (size_t j = i + 1; j < subset.size(); ++j) {
        if (problem.table_id(subset[i]) == problem.table_id(subset[j])) {
          table_repeat = true;
          break;
        }
      }
    }
    if (table_repeat) continue;
    if (!SubsetConsistent(problem, subset, &merged)) continue;
    if (!SubsetConnected(problem, subset)) continue;
    results.push_back(
        DecodeCodeTuple(FdCodeTuple{merged, subset}, problem.dict()));
  }
  return EliminateSubsumed(std::move(results));
}

}  // namespace lakefuzz
