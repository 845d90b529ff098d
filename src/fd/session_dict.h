// SessionDict: a ValueDict whose lifetime spans an engine session, plus a
// per-registered-column code cache.
//
// FdProblem::Build used to copy every cell of every input table into padded
// outer-union rows and re-intern the whole lake on *each* request. A
// SessionDict removes both costs: the dictionary is owned by the LakeEngine
// (codes are stable for the session, so values interned by one request are
// free for every later one), and the interned code column of a registered
// table is memoized keyed by (table address, column) — a warm
// FdProblem::BuildInterned is a flat uint32 scatter with zero hashing and
// zero Value copies. The memoized code spans double as the input of
// discovery sketching (src/discovery/): ColumnCodes hands out the span and
// dict().HashOf supplies the content hash MinHash signatures are built
// over, so sketching a registered table re-hashes no strings.
//
// Thread safety: the underlying ValueDict is internally sharded
// (fd/value_dict.h), so concurrent cold interning — several tables
// registering or being sketched at once — contends per hash shard instead
// of serializing on one dictionary mutex. The SessionDict mutex only guards
// the per-table column memo; a memo miss computes its codes OUTSIDE that
// lock. Two threads racing on the same cold column both intern it (the
// dictionary deduplicates, so they produce identical spans) and one result
// is memoized. Decode / HashOf are deliberately lock-free: ValueDict's
// bucketed storage keeps decoded references stable under growth, so a
// request may stream-decode its result set while another request is still
// interning.
//
// Cache safety: only tables pinned via PinTable are ever memoized, and the
// pin is a shared_ptr — a cached table cannot be destroyed (and its address
// cannot be reused by an aliasing table) while its entry exists. Tables
// never pinned (rewrite-stage temporaries, ad-hoc callers) intern through
// the same dictionary but are recomputed per call. The engine pins every
// registration and calls DropTable when it is released.
#ifndef LAKEFUZZ_FD_SESSION_DICT_H_
#define LAKEFUZZ_FD_SESSION_DICT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fd/value_dict.h"
#include "table/table.h"

namespace lakefuzz {

class SessionDict {
 public:
  /// Cumulative traffic counters (observability; see LakeEngine accessors).
  struct Stats {
    uint64_t column_requests = 0;  ///< ColumnCodes calls
    uint64_t column_hits = 0;      ///< answered from the per-column cache
    uint64_t values_interned = 0;  ///< distinct values appended to the dict
  };

  /// The backing dictionary. Decode / HashOf on the returned reference are
  /// safe concurrently with interning (see file comment); Intern must go
  /// through ColumnCodes / InternValue.
  const ValueDict& dict() const { return dict_; }

  /// Marks `table` as a session-owned snapshot whose interned column codes
  /// may be memoized, pinning it alive for as long as the entry exists.
  void PinTable(std::shared_ptr<const Table> table);

  /// PinTable plus a pre-computed code memo: `columns[c]` must hold the
  /// interned codes of column c (length table.NumRows()). The catalog
  /// loader uses this to seed the memo from persisted code spans, so the
  /// first Integrate over a warm-loaded table interns nothing. First store
  /// wins per column; a table already pinned keeps any codes it has.
  void PinTableWithCodes(
      std::shared_ptr<const Table> table,
      std::vector<std::shared_ptr<const std::vector<uint32_t>>> columns);

  /// Interned codes for column `col` of `table`, length table.NumRows()
  /// (kNullCode for nulls). Memoized iff the table is pinned; otherwise
  /// computed per call (the dictionary still deduplicates values).
  /// Thread-safe; cold columns intern concurrently on the sharded dict.
  std::shared_ptr<const std::vector<uint32_t>> ColumnCodes(const Table& table,
                                                           size_t col);

  /// Interns one value (thread-safe; nulls map to kNullCode).
  uint32_t InternValue(const Value& v);

  /// Catalog-load form of InternValue: interns `v` under its persisted
  /// content `hash` (must equal v.Hash(); the catalog's golden hash test
  /// locks the function so persisted hashes stay valid across builds)
  /// without re-hashing the payload. Returns the session code — equal to
  /// the file code when loading into a fresh dictionary.
  uint32_t RestoreValue(Value v, uint64_t hash);

  /// Bulk catalog-load form: takes every entry of `restored` (filled by
  /// ValueDict::RestoreAll) under its own code when this session has
  /// interned nothing yet, so file code i stays session code i. Returns
  /// false, changing nothing, when the dictionary already holds values.
  bool AdoptRestored(ValueDict&& restored);

  /// Unpins `table` and drops its cached column codes. Codes already handed
  /// out stay valid (shared ownership); the dictionary never shrinks.
  void DropTable(const Table* table);

  /// Distinct non-null values interned so far.
  size_t NumDistinct() const { return dict_.NumDistinct(); }

  Stats stats() const;

 private:
  struct TableEntry {
    std::shared_ptr<const Table> pin;
    /// Per-column cached code vectors (null until first use).
    std::vector<std::shared_ptr<const std::vector<uint32_t>>> columns;
  };

  /// Interns one whole column; called outside mu_ (the dictionary is
  /// internally synchronized).
  std::shared_ptr<const std::vector<uint32_t>> InternColumn(
      const Table& table, size_t col);

  mutable std::mutex mu_;  ///< guards cache_ only
  ValueDict dict_;
  std::unordered_map<const Table*, TableEntry> cache_;
  std::atomic<uint64_t> column_requests_{0};
  std::atomic<uint64_t> column_hits_{0};
  std::atomic<uint64_t> values_interned_{0};
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_SESSION_DICT_H_
