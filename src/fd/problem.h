// FdProblem: the outer-union representation Full Disjunction operates on.
//
// Every input tuple is padded to the universal schema with nulls and tagged
// with its source table and a global tuple id (TID). BuildIndex interns all
// cell values into a per-problem ValueDict so tuples become flat uint32 code
// rows, then builds posting lists over (column, code) pairs. The posting
// lists *are* the join graph, stored implicitly in CSR form: tuples sharing
// an equal non-null value on a universal column are joinable neighbors, and
// a posting list of k tuples represents its k·(k−1) adjacency edges in O(k)
// space — no materialized all-pairs edge lists. Connected components of the
// graph partition the FD computation.
//
// Each posting list also records the universal column it posts and its
// maximal same-table runs of TIDs (BuildInterned numbers TIDs table by
// table, so a list has at most num_tables() runs). The FD enumerator's
// extension sweep (ForEachLiveCoPosted) uses both to skip, in one step per
// run, tuples from tables already in the current set and postings on
// columns the newest member did not bring into the join.
#ifndef LAKEFUZZ_FD_PROBLEM_H_
#define LAKEFUZZ_FD_PROBLEM_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "fd/aligned_schema.h"
#include "fd/value_dict.h"
#include "table/table.h"
#include "util/result.h"

namespace lakefuzz {

class SessionDict;
class ThreadPool;

/// One null-padded input tuple.
struct FdInputTuple {
  uint32_t table_id = 0;
  /// Values over the universal schema (size = FdProblem::num_columns()).
  std::vector<Value> values;
};

/// Size counters of the CSR join-graph index (reported by FdStats).
struct FdIndexStats {
  size_t distinct_values = 0;   ///< non-null dictionary entries
  size_t posting_lists = 0;     ///< multi-tuple (joinable) posting lists
  size_t posting_entries = 0;   ///< Σ posting-list lengths (CSR size)
  size_t posting_runs = 0;      ///< Σ same-table runs over posting lists
  /// Value objects copied while constructing + interning the problem. The
  /// legacy Build path pays O(rows × columns) (padded outer-union rows) plus
  /// one copy per distinct value; BuildInterned pays only the distinct
  /// values *new to the session dictionary* — zero on a warm cache.
  size_t value_copies = 0;
};

/// One maximal run of same-table TIDs inside a posting list.
struct PostingRun {
  uint32_t table = 0;   ///< table id of every TID in the run
  uint32_t length = 0;  ///< number of TIDs in the run
};

/// A materialized Full Disjunction instance.
class FdProblem {
 public:
  /// Code of a null cell in interned rows (== ValueDict::kNullCode).
  static constexpr uint32_t kNullCode = ValueDict::kNullCode;

  FdProblem(size_t num_columns, std::vector<std::string> column_names)
      : num_columns_(num_columns), column_names_(std::move(column_names)) {}

  /// Outer-unions `tables` under `aligned` (validated first). The TableList
  /// form borrows (the engine request path); the vector<Table> overload
  /// forwards.
  static Result<FdProblem> Build(const TableList& tables,
                                 const AlignedSchema& aligned);
  static Result<FdProblem> Build(const std::vector<Table>& tables,
                                 const AlignedSchema& aligned);

  /// Zero-copy outer union: interns codes directly from source-table cells
  /// into the flat uint32 rows — no padded std::vector<Value> per tuple, no
  /// AddTuple copy. `dict` (not owned; must outlive the problem) supplies
  /// and keeps the codes, so repeated builds over the same tables only pay
  /// dictionary lookups — or, for tables pinned in the session dictionary,
  /// a flat scatter of memoized column codes with zero hashing. Problems
  /// built this way have no materialized tuples(): all downstream work runs
  /// on code rows and decodes through dict().
  static Result<FdProblem> BuildInterned(const TableList& tables,
                                         const AlignedSchema& aligned,
                                         SessionDict* dict);

  size_t num_columns() const { return num_columns_; }
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  /// Padded input tuples (legacy Build/AddTuple path only; empty for
  /// BuildInterned problems, which never materialize per-tuple Values).
  const std::vector<FdInputTuple>& tuples() const { return tuples_; }
  size_t num_tuples() const { return table_ids_.size(); }

  /// One more than the largest table_id added (0 for an empty problem).
  uint32_t num_tables() const { return num_tables_; }
  uint32_t table_id(uint32_t tid) const { return table_ids_[tid]; }

  /// Appends a tuple (used by Build and by tests constructing instances
  /// directly). `values` must have num_columns() entries.
  Status AddTuple(uint32_t table_id, std::vector<Value> values);

  /// Builds the value dictionary, interned code rows, CSR posting lists
  /// (fd/posting_lists.h), and components. Idempotent. When `pool` is
  /// non-null the cell-hashing phase of legacy Build problems runs on it;
  /// the rest is serial, so results never depend on it. BuildInterned
  /// problems skip the hash + intern phases entirely (their code rows
  /// already exist).
  void BuildIndex(ThreadPool* pool = nullptr);
  bool index_built() const { return index_built_; }

  /// The interning dictionary: the problem-owned one (legacy Build), or the
  /// session dictionary a BuildInterned problem was encoded against.
  /// Requires BuildIndex() on the legacy path.
  const ValueDict& dict() const {
    return external_dict_ != nullptr ? *external_dict_ : dict_;
  }

  /// Interned row of `tid`: num_columns() codes, kNullCode where null.
  /// Requires BuildIndex().
  const uint32_t* CodeRow(uint32_t tid) const {
    return codes_.data() + static_cast<size_t>(tid) * num_columns_;
  }

  /// TIDs adjacent to `tid` in the join graph: tuples sharing at least one
  /// equal non-null (column, value). Materialized on demand from the CSR
  /// index — sorted, deduplicated, excludes `tid` itself. Requires
  /// BuildIndex().
  std::vector<uint32_t> Neighbors(uint32_t tid) const;

  /// Streams the co-posted tuples of `tid` (every tuple sharing a posting
  /// list with it, excluding `tid`). A tuple sharing several values with
  /// `tid` is visited once per shared posting list — callers dedup, which
  /// the FD enumerator does with epoch stamps anyway. This is the zero-
  /// allocation hot-path form of Neighbors(). Requires BuildIndex().
  template <typename F>
  void ForEachCoPosted(uint32_t tid, F&& fn) const {
    assert(index_built_);
    for (uint64_t k = tuple_offsets_[tid]; k < tuple_offsets_[tid + 1]; ++k) {
      const uint32_t p = tuple_postings_[k];
      for (uint64_t e = posting_offsets_[p]; e < posting_offsets_[p + 1];
           ++e) {
        const uint32_t other = posting_tids_[e];
        if (other != tid) fn(other);
      }
    }
  }

  /// The FD enumerator's extension sweep: the ForEachCoPosted entries of
  /// `tid` restricted to postings whose column c has live_columns[c] set
  /// and, inside those, to tuples whose table t has used_tables[t] clear.
  /// A used table's run is skipped whole, so the cost is the entries of
  /// unused-table runs of live-column postings plus one step per run.
  /// used_tables[table_id(tid)] must be set — that is what keeps `tid`
  /// itself out. Requires BuildIndex().
  template <typename F>
  void ForEachLiveCoPosted(uint32_t tid, const char* used_tables,
                           const char* live_columns, F&& fn) const {
    assert(index_built_);
    assert(used_tables[table_ids_[tid]]);
    for (uint64_t k = tuple_offsets_[tid]; k < tuple_offsets_[tid + 1]; ++k) {
      const uint32_t p = tuple_postings_[k];
      if (!live_columns[posting_columns_[p]]) continue;
      uint64_t e = posting_offsets_[p];
      for (uint64_t r = run_offsets_[p]; r < run_offsets_[p + 1]; ++r) {
        const PostingRun run = runs_[r];
        const uint64_t end = e + run.length;
        if (!used_tables[run.table]) {
          for (; e < end; ++e) fn(posting_tids_[e]);
        }
        e = end;
      }
    }
  }

  /// Universal column posted by posting list `p` (p < posting_lists).
  /// Requires BuildIndex().
  uint32_t PostingColumn(uint32_t p) const { return posting_columns_[p]; }

  /// The same-table runs of posting list `p`, in TID order, as
  /// [first, last). Requires BuildIndex().
  std::pair<const PostingRun*, const PostingRun*> PostingRuns(
      uint32_t p) const {
    return {runs_.data() + run_offsets_[p], runs_.data() + run_offsets_[p + 1]};
  }

  /// TIDs of posting list `p`, ascending, as [first, last). Requires
  /// BuildIndex().
  std::pair<const uint32_t*, const uint32_t*> PostingTids(uint32_t p) const {
    return {posting_tids_.data() + posting_offsets_[p],
            posting_tids_.data() + posting_offsets_[p + 1]};
  }

  /// Connected components of the join graph, each a sorted TID list, ordered
  /// by smallest member. Singleton tuples (no joinable partner) form
  /// singleton components. Requires BuildIndex().
  const std::vector<std::vector<uint32_t>>& Components() const;

  /// Index size counters. Requires BuildIndex().
  const FdIndexStats& index_stats() const { return index_stats_; }

 private:
  size_t num_columns_;
  std::vector<std::string> column_names_;
  std::vector<FdInputTuple> tuples_;  ///< legacy Build path only
  std::vector<uint32_t> table_ids_;   ///< table id per TID (both paths)
  uint32_t num_tables_ = 0;

  bool index_built_ = false;
  /// True once codes_ holds the interned rows (set by BuildInterned, or by
  /// BuildIndex phases 1–2 on the legacy path).
  bool codes_ready_ = false;
  ValueDict dict_;
  /// Session dictionary the rows were encoded against (BuildInterned); not
  /// owned, must outlive the problem. Null on the legacy path.
  const ValueDict* external_dict_ = nullptr;
  size_t value_copies_ = 0;      ///< see FdIndexStats::value_copies
  std::vector<uint32_t> codes_;  ///< num_tuples × num_columns interned cells

  // CSR join graph. Posting lists keep only multi-tuple lists (singletons
  // induce no edges). posting_offsets_ has one extra trailing entry; the
  // TIDs of posting p are posting_tids_[posting_offsets_[p] ..
  // posting_offsets_[p+1]). posting_columns_[p] is the universal column p
  // posts. runs_[run_offsets_[p] .. run_offsets_[p+1]) split p's TIDs into
  // maximal same-table runs, in order (run_offsets_ has a trailing entry
  // too). tuple_offsets_/tuple_postings_ map each TID to the posting lists
  // containing it.
  std::vector<uint64_t> posting_offsets_;
  std::vector<uint32_t> posting_tids_;
  std::vector<uint32_t> posting_columns_;
  std::vector<uint64_t> run_offsets_;
  std::vector<PostingRun> runs_;
  std::vector<uint64_t> tuple_offsets_;
  std::vector<uint32_t> tuple_postings_;

  std::vector<std::vector<uint32_t>> components_;
  FdIndexStats index_stats_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_PROBLEM_H_
