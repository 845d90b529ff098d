// Flat (column, code) posting-list construction over dense code rows — the
// kernel shared by FdProblem::BuildIndex and EliminateSubsumedCodes.
//
// One serial count-and-fill pass pair with no per-list allocation:
//   count — every non-null cell of a kept row looks its (column, code) key
//           up in one flat open-addressing table (DenseKeyIds). A new key
//           opens the next list id, so lists are numbered in
//           first-occurrence row-major order. Each cell records its list
//           id; each list counts its rows.
//   fill  — lists below `min_list_size` are dropped and the rest renumbered
//           in the same order; the counts become CSR offsets, and one sweep
//           over the recorded cell ids writes every row into its lists
//           (ascending within each list) without touching the key table.
// The key table is freed before BuildPostingLists returns.
#ifndef LAKEFUZZ_FD_POSTING_LISTS_H_
#define LAKEFUZZ_FD_POSTING_LISTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "fd/value_dict.h"
#include "util/hash.h"

namespace lakefuzz {

/// Dense ids for nonzero 64-bit keys, numbered in first-insertion order:
/// open addressing over one flat array of 12-byte slots, doubled whenever
/// it would pass half full, so it stays sized to the distinct keys (far
/// fewer than the cells on join-heavy inputs) and cache-resident.
class DenseKeyIds {
 public:
  /// Id of `key` (nonzero), assigning the next id when it is new.
  uint32_t Intern(uint64_t key) {
    size_t h = Probe(key);
    if (slots_[h].key() == key) return slots_[h].id;
    if (2 * (size_ + 1) > slots_.size()) {
      const std::vector<Slot> old = std::move(slots_);
      slots_.assign(old.size() * 2, Slot{});
      for (const Slot& s : old) {
        if (s.key() != 0) slots_[Probe(s.key())] = s;
      }
      h = Probe(key);
    }
    slots_[h] = Slot{static_cast<uint32_t>(key),
                     static_cast<uint32_t>(key >> 32), size_};
    return size_++;
  }

  /// Number of distinct keys interned.
  uint32_t size() const { return size_; }

 private:
  struct Slot {
    uint32_t lo = 0;  ///< lo == hi == 0 marks an empty slot
    uint32_t hi = 0;
    uint32_t id = 0;
    uint64_t key() const { return (static_cast<uint64_t>(hi) << 32) | lo; }
  };

  /// Slot holding `key`, or the empty slot where it would go.
  size_t Probe(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t h = Mix64(key) & mask;
    while (slots_[h].key() != 0 && slots_[h].key() != key) h = (h + 1) & mask;
    return h;
  }

  std::vector<Slot> slots_ = std::vector<Slot>(64);
  uint32_t size_ = 0;
};

/// Posting lists in CSR form plus the list of every cell.
struct PostingLists {
  /// cell_list entry of a cell that is in no list.
  static constexpr uint32_t kNoList = UINT32_MAX;

  /// Rows of list l are rows[offsets[l] .. offsets[l+1]) (one trailing
  /// entry), ascending.
  std::vector<uint64_t> offsets;
  std::vector<uint32_t> rows;
  /// Column each list posts.
  std::vector<uint32_t> columns;
  /// List of cell (row, col) at row * cols + col; kNoList where the cell is
  /// null, its row was skipped, or its list was dropped.
  std::vector<uint32_t> cell_list;

  size_t num_lists() const { return columns.size(); }
  uint64_t ListSize(uint32_t l) const { return offsets[l + 1] - offsets[l]; }
};

/// Builds the posting lists of `num_rows` code rows of width `cols`.
/// `row(i)` returns the i-th row, or nullptr to skip the row entirely;
/// ValueDict::kNullCode cells are skipped. Lists with fewer than
/// `min_list_size` rows are dropped.
template <typename RowFn>
PostingLists BuildPostingLists(size_t num_rows, size_t cols,
                               size_t min_list_size, const RowFn& row) {
  PostingLists out;
  out.cell_list.assign(num_rows * cols, PostingLists::kNoList);

  // Count. `counts` doubles as the old → new id map of the fill below.
  std::vector<uint32_t> counts;
  {
    DenseKeyIds ids;
    for (size_t i = 0; i < num_rows; ++i) {
      const uint32_t* r = row(i);
      if (r == nullptr) continue;
      uint32_t* cell = out.cell_list.data() + i * cols;
      for (size_t c = 0; c < cols; ++c) {
        if (r[c] == ValueDict::kNullCode) continue;
        const uint32_t l = ids.Intern((static_cast<uint64_t>(c) << 32) | r[c]);
        if (l == counts.size()) {
          counts.push_back(0);
          out.columns.push_back(static_cast<uint32_t>(c));
        }
        ++counts[l];
        cell[c] = l;
      }
    }
  }

  // Fill.
  out.offsets.reserve(counts.size() + 1);
  out.offsets.push_back(0);
  uint32_t kept = 0;
  for (size_t l = 0; l < counts.size(); ++l) {
    const uint32_t count = counts[l];
    if (count < min_list_size) {
      counts[l] = PostingLists::kNoList;
      continue;
    }
    out.columns[kept] = out.columns[l];
    out.offsets.push_back(out.offsets.back() + count);
    counts[l] = kept++;
  }
  out.columns.resize(kept);
  out.rows.resize(out.offsets.back());
  std::vector<uint64_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (size_t i = 0; i < num_rows; ++i) {
    uint32_t* cell = out.cell_list.data() + i * cols;
    for (size_t c = 0; c < cols; ++c) {
      if (cell[c] == PostingLists::kNoList) continue;
      const uint32_t l = counts[cell[c]];
      cell[c] = l;
      if (l != PostingLists::kNoList) {
        out.rows[cursor[l]++] = static_cast<uint32_t>(i);
      }
    }
  }
  return out;
}

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_POSTING_LISTS_H_
