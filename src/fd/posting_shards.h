// Sharded (column, code) posting-list construction over dense code rows —
// the kernel shared by FdProblem::BuildIndex and EliminateSubsumedCodes.
//
// Keys are 64-bit (column << 32 | code) integers. Each shard owns the keys
// hashing to it and rescans all rows keeping only those, so inserts never
// contend and per-shard output is deterministic. The rescan is cheap
// flat-integer work, but it multiplies with shard count — PostingShardCount
// gates sharding on problem size.
#ifndef LAKEFUZZ_FD_POSTING_SHARDS_H_
#define LAKEFUZZ_FD_POSTING_SHARDS_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fd/value_dict.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace lakefuzz {

/// One shard of posting lists: key → list id, plus the lists (row ids in
/// ascending order) and the column each list posts (columns[i] of lists[i]).
struct PostingShard {
  std::unordered_map<uint64_t, uint32_t> index;
  std::vector<std::vector<uint32_t>> lists;
  std::vector<uint32_t> columns;
};

inline uint64_t PostingKey(size_t col, uint32_t code) {
  return (static_cast<uint64_t>(col) << 32) | code;
}

/// Shard owning `key` among `shards`.
inline size_t PostingShardOf(uint64_t key, size_t shards) {
  return shards > 1 ? Mix64(key) % shards : 0;
}

/// Shard count for `cells` total code cells on `pool` (1 without a pool).
inline size_t PostingShardCount(const ThreadPool* pool, size_t cells) {
  constexpr size_t kCellsPerShard = 1 << 16;
  if (pool == nullptr) return 1;
  return std::max<size_t>(
      1, std::min(pool->num_threads(), 1 + cells / kCellsPerShard));
}

/// Builds sharded posting lists over `num_rows` code rows of width `cols`.
/// `row(i)` returns the i-th row (or nullptr to skip the row entirely);
/// ValueDict::kNullCode cells are skipped. Runs on `pool` when provided;
/// shard contents are identical for any schedule.
template <typename RowFn>
std::vector<PostingShard> BuildPostingShards(ThreadPool* pool, size_t num_rows,
                                             size_t cols, const RowFn& row) {
  const size_t cells = num_rows * cols;
  const size_t shards = PostingShardCount(pool, cells);
  std::vector<PostingShard> out(shards);
  MaybeParallelFor(pool, shards, [&](size_t s) {
    PostingShard& sh = out[s];
    sh.index.reserve(cells / shards / 2 + 16);
    for (uint32_t i = 0; i < num_rows; ++i) {
      const uint32_t* r = row(i);
      if (r == nullptr) continue;
      for (size_t c = 0; c < cols; ++c) {
        const uint32_t code = r[c];
        if (code == ValueDict::kNullCode) continue;
        const uint64_t key = PostingKey(c, code);
        if (PostingShardOf(key, shards) != s) continue;
        auto [it, inserted] =
            sh.index.emplace(key, static_cast<uint32_t>(sh.lists.size()));
        if (inserted) {
          sh.lists.emplace_back();
          sh.columns.push_back(static_cast<uint32_t>(c));
        }
        sh.lists[it->second].push_back(i);
      }
    }
  });
  return out;
}

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_POSTING_SHARDS_H_
