// ParallelFullDisjunction: the pool-owning front of the FD executor.
//
// FullDisjunction is the one executor; it runs on whatever pool it is given
// (or inline without one). This front only decides which pool that is — a
// caller's session pool, or one spawned for the run — and forwards.
#ifndef LAKEFUZZ_FD_PARALLEL_H_
#define LAKEFUZZ_FD_PARALLEL_H_

#include <cstddef>

#include "fd/full_disjunction.h"

namespace lakefuzz {

class ThreadPool;

struct ParallelFdOptions {
  FdOptions fd;
  /// 0 → hardware concurrency. Ignored when `pool` is set.
  size_t num_threads = 0;
  /// Externally owned worker pool (a LakeEngine's session pool). When set,
  /// the executor runs on it instead of spawning its own — repeated
  /// requests stop paying thread start-up per call. Not owned.
  ThreadPool* pool = nullptr;
};

/// Runs FullDisjunction on `options.pool`, or on a pool of
/// `options.num_threads` workers owned for the duration of the call.
/// Results are identical (same order) to a poolless FullDisjunction.
class ParallelFullDisjunction {
 public:
  explicit ParallelFullDisjunction(
      ParallelFdOptions options = ParallelFdOptions())
      : options_(options) {}

  Result<FdResult> Run(FdProblem* problem) const;

  /// See FullDisjunction::RunCodes.
  Result<std::vector<FdCodeTuple>> RunCodes(
      FdProblem* problem, FdStats* stats,
      const RequestContext& ctx = RequestContext(),
      const ProgressFn& progress = ProgressFn()) const;

 private:
  ParallelFdOptions options_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_PARALLEL_H_
