// FuzzyFullDisjunction: the paper's end-to-end operator.
//
// Pipeline (paper Sec 2): for every universal column fed by two or more
// tables, run the ValueMatcher over its aligning columns, rewrite every
// matched value to its group representative, then compute the ordinary
// equi-join Full Disjunction over the rewritten tables. With matching
// disabled this degenerates to regular FD (the ALITE baseline), so both
// sides of the paper's comparisons share one code path.
//
// Session integration: every entry point has a TableList (borrowed
// pointers) form so a LakeEngine can serve requests over registry-owned
// tables without copying; options carry an optional session ThreadPool,
// a RequestContext (cancel + deadline + resource budget, honored at matcher
// merge rounds, per FD component, and inside the enumerator), and a
// ProgressFn fired at stage boundaries.
#ifndef LAKEFUZZ_CORE_FUZZY_FD_H_
#define LAKEFUZZ_CORE_FUZZY_FD_H_

#include <functional>

#include "core/value_matcher.h"
#include "fd/full_disjunction.h"
#include "util/request_context.h"
#include "util/result.h"

namespace lakefuzz {

class SessionDict;

struct FuzzyFdOptions {
  ValueMatcherOptions matcher;
  FdOptions fd;
  /// Run the FD stage (and result decode) on a pool: `pool` when set,
  /// otherwise one of `num_threads` workers (0 = hardware concurrency)
  /// owned for the stage. False runs the same executor inline on the
  /// calling thread. Output is identical either way.
  bool parallel = false;
  size_t num_threads = 0;
  /// Add the "TIDs" provenance column to the output table (Fig. 1 style).
  bool include_provenance = false;
  /// Externally owned session pool (LakeEngine). Used by the FD stage when
  /// `parallel` is set; also handed to the matcher unless `matcher.pool` is
  /// already set. Not owned.
  ThreadPool* pool = nullptr;
  /// Session-lived interning dictionary (LakeEngine). When set, the FD
  /// problem is built with FdProblem::BuildInterned — codes scatter straight
  /// from source-table cells, no padded Value rows — and input tables the
  /// rewrite stage left untouched are interned through the per-column code
  /// cache (they must be session-owned snapshots; see fd/session_dict.h for
  /// the invalidation contract). Not owned; must outlive every result
  /// decoded against it.
  SessionDict* session_dict = nullptr;
  /// Request lifecycle: cancel token, deadline, resource budget, and the
  /// truncate-vs-fail policy. The cancel token is also threaded into
  /// `matcher.cancel` (and the deadline into `matcher.deadline`) when those
  /// are unset. A fired token surfaces as Status::Cancelled, an expired
  /// deadline as Status::DeadlineExceeded, from the nearest checkpoint —
  /// unless BudgetPolicy::kTruncate turns the latter into a partial result
  /// with a populated FuzzyFdReport::truncation.
  RequestContext context;
  /// Stage-boundary progress (see util/cancellation.h). Invoked on the
  /// calling thread: kMatch counts universal columns, the FD stages report
  /// (0,1) on entry and (1,1) on completion.
  ProgressFn progress;
};

/// Stage timings and counters for the efficiency experiments (Fig. 3) and
/// engine observability. One report covers every stage of a request, so
/// total_seconds() is the end-to-end pipeline time.
struct FuzzyFdReport {
  /// Column alignment (filled by the pipeline/engine layer that ran it;
  /// zero when the caller aligned out of band).
  double align_seconds = 0.0;
  double match_seconds = 0.0;
  double rewrite_seconds = 0.0;
  /// Outer-union construction (FdProblem::Build); also included in
  /// fd_seconds. The index/enumeration/subsumption split inside fd_seconds
  /// is in fd_stats.
  double fd_build_seconds = 0.0;
  double fd_seconds = 0.0;
  size_t aligned_sets_matched = 0;
  size_t values_rewritten = 0;
  ValueMatchStats match_stats;
  FdStats fd_stats;
  /// Request-level degradation report (BudgetPolicy::kTruncate): folds the
  /// FD executor's fd_stats.truncation together with match-stage and
  /// emit-stage cuts. truncated == false means the result is complete.
  Truncation truncation;

  /// End-to-end wall time across all stages (align + match + rewrite + FD).
  double total_seconds() const {
    return align_seconds + match_seconds + rewrite_seconds + fd_seconds;
  }
};

/// Receives one decoded result batch in streaming mode. Returning a non-OK
/// status aborts the run and propagates the status to the caller.
using FdBatchFn = std::function<Status(const std::vector<FdResultTuple>&)>;

class FuzzyFullDisjunction {
 public:
  explicit FuzzyFullDisjunction(FuzzyFdOptions options)
      : options_(std::move(options)) {}

  /// Value matching + value rewriting only (no FD); exposed for tests and
  /// for inspecting the consistent tables (Fig. 2 bottom-left).
  Result<std::vector<Table>> RewriteTables(const TableList& tables,
                                           const AlignedSchema& aligned,
                                           FuzzyFdReport* report) const;
  Result<std::vector<Table>> RewriteTables(const std::vector<Table>& tables,
                                           const AlignedSchema& aligned,
                                           FuzzyFdReport* report) const;

  /// Full pipeline; returns the integrated table. The surviving interned
  /// rows decode straight into its columns (FdCodesToTable) in a kEmit
  /// stage and "emit" span after the FD stage.
  Result<Table> Run(const TableList& tables, const AlignedSchema& aligned,
                    FuzzyFdReport* report = nullptr) const;
  Result<Table> Run(const std::vector<Table>& tables,
                    const AlignedSchema& aligned,
                    FuzzyFdReport* report = nullptr) const;

  /// Full pipeline, returning raw FD tuples (provenance TIDs are global
  /// outer-union ids: table order, then row order).
  Result<FdResult> RunToTuples(const TableList& tables,
                               const AlignedSchema& aligned,
                               FuzzyFdReport* report = nullptr) const;
  Result<FdResult> RunToTuples(const std::vector<Table>& tables,
                               const AlignedSchema& aligned,
                               FuzzyFdReport* report = nullptr) const;

  /// Streaming form: runs the full pipeline but never materializes the
  /// decoded result set. Result tuples are decoded in windows of at most
  /// `batch_rows` (the final batch may be smaller) and handed to `emit` in
  /// FdTupleLess order; the batch vector is reused, so `emit` must copy
  /// what it keeps. Returns the number of tuples emitted. Cancellation is
  /// additionally polled between batches.
  Result<size_t> RunToBatches(const TableList& tables,
                              const AlignedSchema& aligned, size_t batch_rows,
                              const FdBatchFn& emit,
                              FuzzyFdReport* report = nullptr) const;

 private:
  FuzzyFdOptions options_;
};

/// Regular (equi-join) Full Disjunction with the same reporting interface —
/// the ALITE baseline in the paper's experiments. The TableList form takes
/// the session extras (pool / cancel / progress); the vector<Table>
/// overload keeps the historical signature.
/// `session_dict`, when set, builds the problem with BuildInterned and
/// treats every input table as a session-cached snapshot (the engine only
/// passes registry-owned tables here).
Result<FdResult> RegularFdBaseline(
    const TableList& tables, const AlignedSchema& aligned,
    const FdOptions& fd_options, bool parallel, size_t num_threads,
    FuzzyFdReport* report, ThreadPool* pool = nullptr,
    const RequestContext& ctx = RequestContext(),
    const ProgressFn& progress = ProgressFn(),
    SessionDict* session_dict = nullptr);
Result<FdResult> RegularFdBaseline(const std::vector<Table>& tables,
                                   const AlignedSchema& aligned,
                                   const FdOptions& fd_options,
                                   bool parallel, size_t num_threads,
                                   FuzzyFdReport* report);

/// Regular FD straight to the integrated "full_disjunction" table, the
/// non-fuzzy twin of FuzzyFullDisjunction::Run: `options` supplies the FD,
/// pool, session and request settings and include_provenance; its matcher
/// settings are unused.
Result<Table> RegularFdToTable(const TableList& tables,
                               const AlignedSchema& aligned,
                               const FuzzyFdOptions& options,
                               FuzzyFdReport* report = nullptr);

/// Streaming twin of RegularFdBaseline (see RunToBatches for the batch
/// contract). Returns the number of tuples emitted.
Result<size_t> RegularFdToBatches(const TableList& tables,
                                  const AlignedSchema& aligned,
                                  const FdOptions& fd_options, bool parallel,
                                  size_t num_threads, ThreadPool* pool,
                                  const RequestContext& ctx,
                                  const ProgressFn& progress,
                                  size_t batch_rows, const FdBatchFn& emit,
                                  FuzzyFdReport* report,
                                  SessionDict* session_dict = nullptr);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_CORE_FUZZY_FD_H_
