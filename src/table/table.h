// Table: the in-memory relational unit that everything in lakefuzz consumes.
//
// Storage is columnar (vector<Value> per column) — the fuzzy-matching stages
// are column-oriented (distinct values per column, per-column rewrites), and
// Full Disjunction scans columns to build posting lists.
#ifndef LAKEFUZZ_TABLE_TABLE_H_
#define LAKEFUZZ_TABLE_TABLE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "table/schema.h"
#include "table/value.h"
#include "util/result.h"

namespace lakefuzz {

/// A named table: schema + columnar rows.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return schema_.NumFields(); }

  /// Appends a row; `row.size()` must equal NumColumns().
  Status AppendRow(std::vector<Value> row);

  /// Cell accessors (bounds-asserted in debug builds).
  const Value& At(size_t row, size_t col) const;
  void Set(size_t row, size_t col, Value v);

  /// Whole-column view.
  const std::vector<Value>& ColumnValues(size_t col) const;

  /// Materializes one row.
  std::vector<Value> Row(size_t row) const;

  /// Distinct non-null values of a column, in first-appearance order —
  /// the clean-clean value universe the fuzzy matcher operates on.
  std::vector<Value> DistinctNonNull(size_t col) const;

  /// Number of nulls in a column.
  size_t NullCount(size_t col) const;

  /// Builds a table from rows (convenience for tests and examples).
  static Result<Table> FromRows(std::string name,
                                std::vector<std::string> column_names,
                                std::vector<std::vector<Value>> rows);

  /// Builds a table of `num_rows` rows from whole columns, one per schema
  /// field, each holding `num_rows` values — no per-row copy and no column
  /// growth.
  static Result<Table> FromColumns(std::string name, Schema schema,
                                   std::vector<std::vector<Value>> columns,
                                   size_t num_rows);

  /// Returns a copy restricted to `row_indices` (in the given order).
  Table SelectRows(const std::vector<size_t>& row_indices) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  size_t num_rows_ = 0;
};

/// Non-owning view of an integration set — the currency of the pipeline
/// internals, so a LakeEngine can serve requests over registry-owned tables
/// without copying them per call. Callers guarantee the pointed-to tables
/// outlive the operation.
using TableList = std::vector<const Table*>;

/// Borrows every table of an owning vector (adapter for the value-based
/// convenience overloads).
inline TableList BorrowTables(const std::vector<Table>& tables) {
  TableList out;
  out.reserve(tables.size());
  for (const Table& t : tables) out.push_back(&t);
  return out;
}

}  // namespace lakefuzz

#endif  // LAKEFUZZ_TABLE_TABLE_H_
