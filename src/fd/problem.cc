#include "fd/problem.h"

#include <algorithm>

#include "fd/posting_lists.h"
#include "fd/session_dict.h"
#include "util/str.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace lakefuzz {
namespace {

/// Distinct non-null codes among `codes`, through a key table sized to the
/// distinct codes: O(cells), however large the dictionary the codes came
/// from.
size_t CountDistinctCodes(const std::vector<uint32_t>& codes) {
  DenseKeyIds ids;
  for (uint32_t code : codes) {
    if (code != FdProblem::kNullCode) ids.Intern(code);
  }
  return ids.size();
}

}  // namespace

Result<FdProblem> FdProblem::Build(const TableList& tables,
                                   const AlignedSchema& aligned) {
  LAKEFUZZ_RETURN_IF_ERROR(ValidateAlignedSchema(aligned, tables));
  FdProblem problem(aligned.NumUniversal(), aligned.universal_names);
  for (size_t l = 0; l < tables.size(); ++l) {
    const Table& t = *tables[l];
    for (size_t r = 0; r < t.NumRows(); ++r) {
      std::vector<Value> padded(aligned.NumUniversal());
      for (size_t c = 0; c < t.NumColumns(); ++c) {
        padded[aligned.column_map[l][c]] = t.At(r, c);
      }
      problem.value_copies_ += t.NumColumns();
      LAKEFUZZ_RETURN_IF_ERROR(
          problem.AddTuple(static_cast<uint32_t>(l), std::move(padded)));
    }
  }
  return problem;
}

Result<FdProblem> FdProblem::Build(const std::vector<Table>& tables,
                                   const AlignedSchema& aligned) {
  return Build(BorrowTables(tables), aligned);
}

Result<FdProblem> FdProblem::BuildInterned(const TableList& tables,
                                           const AlignedSchema& aligned,
                                           SessionDict* dict) {
  if (dict == nullptr) {
    return Status::InvalidArgument("BuildInterned requires a SessionDict");
  }
  LAKEFUZZ_RETURN_IF_ERROR(ValidateAlignedSchema(aligned, tables));
  FdProblem problem(aligned.NumUniversal(), aligned.universal_names);
  const size_t cols = aligned.NumUniversal();
  size_t total_rows = 0;
  for (const Table* t : tables) total_rows += t->NumRows();
  problem.codes_.assign(total_rows * cols, kNullCode);
  problem.table_ids_.reserve(total_rows);

  const uint64_t interned_before = dict->stats().values_interned;
  size_t base = 0;
  for (size_t l = 0; l < tables.size(); ++l) {
    const Table& t = *tables[l];
    const size_t rows = t.NumRows();
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      auto column = dict->ColumnCodes(t, c);
      const uint32_t* src = column->data();
      uint32_t* dst = problem.codes_.data() + base * cols +
                      aligned.column_map[l][c];
      for (size_t r = 0; r < rows; ++r) dst[r * cols] = src[r];
    }
    for (size_t r = 0; r < rows; ++r) {
      problem.table_ids_.push_back(static_cast<uint32_t>(l));
    }
    problem.num_tables_ =
        std::max(problem.num_tables_, static_cast<uint32_t>(l) + 1);
    base += rows;
  }
  problem.value_copies_ = dict->stats().values_interned - interned_before;
  problem.external_dict_ = &dict->dict();
  problem.codes_ready_ = true;
  return problem;
}

Status FdProblem::AddTuple(uint32_t table_id, std::vector<Value> values) {
  if (external_dict_ != nullptr) {
    return Status::InvalidArgument(
        "cannot AddTuple into a BuildInterned problem");
  }
  if (values.size() != num_columns_) {
    return Status::InvalidArgument(
        StrFormat("tuple has %zu values, problem has %zu columns",
                  values.size(), num_columns_));
  }
  tuples_.push_back(FdInputTuple{table_id, std::move(values)});
  table_ids_.push_back(table_id);
  num_tables_ = std::max(num_tables_, table_id + 1);
  index_built_ = false;
  codes_ready_ = false;
  return Status::OK();
}

std::vector<uint32_t> FdProblem::Neighbors(uint32_t tid) const {
  assert(index_built_);
  std::vector<uint32_t> out;
  ForEachCoPosted(tid, [&out](uint32_t other) { out.push_back(other); });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const std::vector<std::vector<uint32_t>>& FdProblem::Components() const {
  assert(index_built_);
  return components_;
}

void FdProblem::BuildIndex(ThreadPool* pool) {
  if (index_built_) return;
  const uint32_t n = static_cast<uint32_t>(num_tuples());
  const size_t cols = num_columns_;
  const size_t cells = static_cast<size_t>(n) * cols;

  if (!codes_ready_) {
    // ---- Phase 1: hash every non-null cell (pure per tuple → parallel).
    std::vector<uint64_t> cell_hash(cells, 0);
    MaybeParallelFor(pool, n, [&](size_t tid) {
      const auto& vals = tuples_[tid].values;
      uint64_t* out = cell_hash.data() + tid * cols;
      for (size_t c = 0; c < cols; ++c) {
        if (!vals[c].is_null()) out[c] = vals[c].Hash();
      }
    });

    // ---- Phase 2: intern cells into flat code rows. Serial on purpose: the
    // first-occurrence order defines codes, so the dictionary is identical on
    // every run; the string hashing already happened in phase 1.
    dict_ = ValueDict();
    dict_.Reserve(cells / 4 + 16);
    codes_.assign(cells, kNullCode);
    for (uint32_t tid = 0; tid < n; ++tid) {
      const auto& vals = tuples_[tid].values;
      const uint64_t* h = cell_hash.data() + static_cast<size_t>(tid) * cols;
      uint32_t* out = codes_.data() + static_cast<size_t>(tid) * cols;
      for (size_t c = 0; c < cols; ++c) {
        if (!vals[c].is_null()) out[c] = dict_.InternHashed(vals[c], h[c]);
      }
    }
    value_copies_ += dict_.NumDistinct();
    codes_ready_ = true;
  }

  // ---- Phase 3: (column, code) posting lists (fd/posting_lists.h).
  // Singleton lists are dropped — they induce no join edges.
  PostingLists lists = BuildPostingLists(
      n, cols, 2, [this, cols](size_t tid) {
        return codes_.data() + tid * cols;
      });
  const size_t num_postings = lists.num_lists();
  const size_t num_entries = lists.rows.size();
  posting_offsets_ = std::move(lists.offsets);
  posting_tids_ = std::move(lists.rows);
  posting_columns_ = std::move(lists.columns);

  // ---- Phase 4: same-table runs and the union-find component merge, one
  // pass over the posting entries.
  UnionFind uf(n);
  run_offsets_.assign(num_postings + 1, 0);
  runs_.clear();
  for (size_t p = 0; p < num_postings; ++p) {
    run_offsets_[p] = runs_.size();
    const uint64_t begin = posting_offsets_[p];
    for (uint64_t e = begin; e < posting_offsets_[p + 1]; ++e) {
      const uint32_t tid = posting_tids_[e];
      const uint32_t table = table_ids_[tid];
      if (e == begin || runs_.back().table != table) {
        runs_.push_back(PostingRun{table, 0});
      }
      ++runs_.back().length;
      if (e != begin) uf.Union(posting_tids_[begin], tid);
    }
  }
  const size_t num_runs = runs_.size();
  run_offsets_[num_postings] = num_runs;

  // ---- Phase 5: tuple → posting-list CSR from the per-cell list ids, each
  // tuple's lists in ascending id order.
  tuple_offsets_.assign(n + 1, 0);
  tuple_postings_.clear();
  tuple_postings_.reserve(num_entries);
  for (uint32_t tid = 0; tid < n; ++tid) {
    const uint32_t* cell =
        lists.cell_list.data() + static_cast<size_t>(tid) * cols;
    for (size_t c = 0; c < cols; ++c) {
      if (cell[c] != PostingLists::kNoList) tuple_postings_.push_back(cell[c]);
    }
    std::sort(tuple_postings_.begin() + tuple_offsets_[tid],
              tuple_postings_.end());
    tuple_offsets_[tid + 1] = tuple_postings_.size();
  }
  lists = PostingLists();

  // ---- Phase 6: components, grouped by union-find root. Iterating TIDs in
  // order makes every component sorted and the component list ordered by
  // smallest member.
  components_.clear();
  std::vector<uint32_t> comp_of_root(n, UINT32_MAX);
  for (uint32_t tid = 0; tid < n; ++tid) {
    uint32_t& slot = comp_of_root[uf.Find(tid)];
    if (slot == UINT32_MAX) {
      slot = static_cast<uint32_t>(components_.size());
      components_.emplace_back();
    }
    components_[slot].push_back(tid);
  }

  // The session dictionary's size covers the whole session, not this
  // problem: count the codes actually present so the stat keeps describing
  // the problem it is attached to.
  index_stats_.distinct_values = external_dict_ == nullptr
                                     ? dict_.NumDistinct()
                                     : CountDistinctCodes(codes_);
  index_stats_.posting_lists = num_postings;
  index_stats_.posting_entries = num_entries;
  index_stats_.posting_runs = num_runs;
  index_stats_.value_copies = value_copies_;
  index_built_ = true;
}

}  // namespace lakefuzz
