#include "fd/parallel.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

/// Session pools (LakeEngine) are reused across calls; otherwise spawn a
/// pool for this run. The one pool-resolution rule for RunCodes and Run.
ThreadPool* ResolvePool(const ParallelFdOptions& options,
                        std::unique_ptr<ThreadPool>* owned) {
  if (options.pool != nullptr) return options.pool;
  size_t threads = options.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  *owned = std::make_unique<ThreadPool>(threads);
  return owned->get();
}

}  // namespace

Result<std::vector<FdCodeTuple>> ParallelFullDisjunction::RunCodes(
    FdProblem* problem, FdStats* stats, const RequestContext& ctx,
    const ProgressFn& progress) const {
  std::unique_ptr<ThreadPool> owned_pool;
  return FullDisjunction(options_.fd, ResolvePool(options_, &owned_pool))
      .RunCodes(problem, stats, ctx, progress);
}

Result<FdResult> ParallelFullDisjunction::Run(FdProblem* problem) const {
  std::unique_ptr<ThreadPool> owned_pool;
  return FullDisjunction(options_.fd, ResolvePool(options_, &owned_pool))
      .Run(problem);
}

}  // namespace lakefuzz
