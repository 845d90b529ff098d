#include "fd/problem.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "fd/posting_shards.h"
#include "fd/session_dict.h"
#include "util/hash.h"
#include "util/str.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace lakefuzz {

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

  // ---- Phase 3: sharded posting maps over (column, code) integer keys
  // (fd/posting_shards.h). Singleton lists are then dropped — they induce
  // no join edges — and each shard counts the same-table runs of the lists
  // it keeps.
  std::vector<PostingShard> shard = BuildPostingShards(
      pool, n, cols,
      [this, cols](uint32_t tid) {
        return codes_.data() + static_cast<size_t>(tid) * cols;
      });
  const size_t shards = shard.size();
  std::vector<size_t> shard_runs(shards, 0);
  MaybeParallelFor(pool, shards, [&](size_t s) {
    auto& lists = shard[s].lists;
    auto& columns = shard[s].columns;
    shard[s].index.clear();
    size_t kept = 0;
    size_t runs = 0;
    for (size_t i = 0; i < lists.size(); ++i) {
      const auto& lst = lists[i];
      if (lst.size() < 2) continue;
      ++runs;
      for (size_t j = 1; j < lst.size(); ++j) {
        runs += table_ids_[lst[j]] != table_ids_[lst[j - 1]];
      }
      if (kept != i) {
        lists[kept] = std::move(lists[i]);
        columns[kept] = columns[i];
      }
      ++kept;
    }
    lists.resize(kept);
    columns.resize(kept);
    shard_runs[s] = runs;
  });

  // ---- Phase 4: CSR posting arrays (TIDs, columns, same-table runs) +
  // union-find component merge. Shards write disjoint ranges; the parallel
  // path merges through a lock-free union-find, the serial path through an
  // iterative union-by-rank one.
  std::vector<size_t> posting_base(shards + 1, 0);
  std::vector<size_t> entry_base(shards + 1, 0);
  std::vector<size_t> run_base(shards + 1, 0);
  for (size_t s = 0; s < shards; ++s) {
    size_t entries = 0;
    for (const auto& lst : shard[s].lists) entries += lst.size();
    posting_base[s + 1] = posting_base[s] + shard[s].lists.size();
    entry_base[s + 1] = entry_base[s] + entries;
    run_base[s + 1] = run_base[s] + shard_runs[s];
  }
  const size_t num_postings = posting_base[shards];
  const size_t num_entries = entry_base[shards];
  const size_t num_runs = run_base[shards];
  posting_offsets_.assign(num_postings + 1, 0);
  posting_offsets_[num_postings] = num_entries;
  posting_tids_.assign(num_entries, 0);
  posting_columns_.assign(num_postings, 0);
  run_offsets_.assign(num_postings + 1, 0);
  run_offsets_[num_postings] = num_runs;
  runs_.assign(num_runs, PostingRun{});

  auto fill_shard = [&](size_t s, auto& union_find) {
    size_t p = posting_base[s];
    size_t e = entry_base[s];
    size_t r = run_base[s];
    for (size_t l = 0; l < shard[s].lists.size(); ++l) {
      const auto& lst = shard[s].lists[l];
      posting_offsets_[p] = e;
      posting_columns_[p] = shard[s].columns[l];
      run_offsets_[p] = r;
      ++p;
      for (size_t i = 0; i < lst.size(); ++i) {
        posting_tids_[e++] = lst[i];
        const uint32_t table = table_ids_[lst[i]];
        if (i == 0 || runs_[r - 1].table != table) runs_[r++].table = table;
        ++runs_[r - 1].length;
        if (i > 0) union_find.Union(lst[0], lst[i]);
      }
    }
  };
  std::vector<uint32_t> root(n);
  if (pool != nullptr && shards > 1) {
    AtomicUnionFind uf(n);
    pool->ParallelFor(shards, [&](size_t s) { fill_shard(s, uf); });
    for (uint32_t i = 0; i < n; ++i) root[i] = uf.Find(i);
  } else {
    UnionFind uf(n);
    for (size_t s = 0; s < shards; ++s) fill_shard(s, uf);
    for (uint32_t i = 0; i < n; ++i) root[i] = uf.Find(i);
  }
  shard.clear();

  // ---- Phase 5: tuple → posting-list CSR (counting sort over the flat
  // posting entries; deterministic and O(entries)).
  tuple_offsets_.assign(n + 1, 0);
  for (size_t e = 0; e < num_entries; ++e) {
    ++tuple_offsets_[posting_tids_[e] + 1];
  }
  for (size_t i = 0; i < n; ++i) tuple_offsets_[i + 1] += tuple_offsets_[i];
  tuple_postings_.assign(num_entries, 0);
  std::vector<uint64_t> cursor(tuple_offsets_.begin(),
                               tuple_offsets_.end() - 1);
  for (size_t p = 0; p < num_postings; ++p) {
    for (uint64_t e = posting_offsets_[p]; e < posting_offsets_[p + 1]; ++e) {
      tuple_postings_[cursor[posting_tids_[e]]++] = static_cast<uint32_t>(p);
    }
  }

  // ---- Phase 6: components, grouped by union-find root. Iterating TIDs in
  // order makes every component sorted and the component list ordered by
  // smallest member, independent of shard count or thread schedule.
  components_.clear();
  std::vector<uint32_t> comp_of_root(n, UINT32_MAX);
  for (uint32_t tid = 0; tid < n; ++tid) {
    uint32_t& slot = comp_of_root[root[tid]];
    if (slot == UINT32_MAX) {
      slot = static_cast<uint32_t>(components_.size());
      components_.emplace_back();
    }
    components_[slot].push_back(tid);
  }

  if (external_dict_ == nullptr) {
    index_stats_.distinct_values = dict_.NumDistinct();
  } else {
    // Session dictionary: its size covers the whole session, not this
    // problem. Count the codes actually present so the stat keeps
    // describing the problem it is attached to.
    std::vector<char> seen(external_dict_->NumDistinct() + 1, 0);
    size_t distinct = 0;
    for (uint32_t code : codes_) {
      if (code == kNullCode || seen[code]) continue;
      seen[code] = 1;
      ++distinct;
    }
    index_stats_.distinct_values = distinct;
  }
  index_stats_.posting_lists = num_postings;
  index_stats_.posting_entries = num_entries;
  index_stats_.posting_runs = num_runs;
  index_stats_.value_copies = value_copies_;
  index_built_ = true;
}

}  // namespace lakefuzz
