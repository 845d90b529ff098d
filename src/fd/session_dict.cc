#include "fd/session_dict.h"

namespace lakefuzz {

std::shared_ptr<const std::vector<uint32_t>> SessionDict::InternColumn(
    const Table& table, size_t col) {
  const std::vector<Value>& values = table.ColumnValues(col);
  auto codes = std::make_shared<std::vector<uint32_t>>();
  codes->reserve(values.size());
  uint64_t appended = 0;
  bool inserted = false;
  for (const Value& v : values) {
    codes->push_back(dict_.Intern(v, &inserted));
    appended += inserted ? 1 : 0;
  }
  values_interned_.fetch_add(appended, std::memory_order_relaxed);
  return codes;
}

void SessionDict::PinTable(std::shared_ptr<const Table> table) {
  if (table == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  TableEntry& entry = cache_[table.get()];
  if (entry.pin == nullptr) entry.pin = std::move(table);
}

void SessionDict::PinTableWithCodes(
    std::shared_ptr<const Table> table,
    std::vector<std::shared_ptr<const std::vector<uint32_t>>> columns) {
  if (table == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  TableEntry& entry = cache_[table.get()];
  if (entry.pin == nullptr) entry.pin = std::move(table);
  if (entry.columns.size() < columns.size()) {
    entry.columns.resize(columns.size());
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    if (entry.columns[c] == nullptr) entry.columns[c] = std::move(columns[c]);
  }
}

uint32_t SessionDict::RestoreValue(Value v, uint64_t hash) {
  if (v.is_null()) return ValueDict::kNullCode;
  bool inserted = false;
  const uint32_t code = dict_.InternHashed(std::move(v), hash, &inserted);
  if (inserted) values_interned_.fetch_add(1, std::memory_order_relaxed);
  return code;
}

bool SessionDict::AdoptRestored(ValueDict&& restored) {
  const size_t count = restored.NumDistinct();
  if (!dict_.AdoptIfEmpty(std::move(restored))) return false;
  values_interned_.fetch_add(count, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<const std::vector<uint32_t>> SessionDict::ColumnCodes(
    const Table& table, size_t col) {
  column_requests_.fetch_add(1, std::memory_order_relaxed);
  bool pinned = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(&table);
    if (it != cache_.end()) {
      pinned = true;
      auto& columns = it->second.columns;
      if (columns.size() < table.NumColumns()) {
        columns.resize(table.NumColumns());
      }
      if (columns[col] != nullptr) {
        column_hits_.fetch_add(1, std::memory_order_relaxed);
        return columns[col];
      }
    }
  }
  // Cold column: intern outside the memo lock so concurrent registrations /
  // sketch builds only contend inside the dictionary's hash shards. A racing
  // thread computing the same column produces an identical span (the dict
  // deduplicates); first store wins below.
  auto codes = InternColumn(table, col);
  if (!pinned) return codes;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(&table);
  if (it == cache_.end()) return codes;  // dropped while interning
  auto& columns = it->second.columns;
  if (columns.size() < table.NumColumns()) columns.resize(table.NumColumns());
  if (columns[col] == nullptr) columns[col] = std::move(codes);
  return columns[col];
}

uint32_t SessionDict::InternValue(const Value& v) {
  bool inserted = false;
  const uint32_t code = dict_.Intern(v, &inserted);
  if (inserted) values_interned_.fetch_add(1, std::memory_order_relaxed);
  return code;
}

void SessionDict::DropTable(const Table* table) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.erase(table);
}

SessionDict::Stats SessionDict::stats() const {
  Stats out;
  out.column_requests = column_requests_.load(std::memory_order_relaxed);
  out.column_hits = column_hits_.load(std::memory_order_relaxed);
  out.values_interned = values_interned_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace lakefuzz
