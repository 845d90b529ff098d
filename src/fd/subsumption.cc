#include "fd/subsumption.h"

#include <algorithm>
#include <charconv>
#include <unordered_map>
#include <utility>

#include "fd/posting_lists.h"
#include "fd/value_dict.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace lakefuzz {

FdResultTuple DecodeCodeTuple(const FdCodeTuple& t, const ValueDict& dict) {
  FdResultTuple out;
  out.values.reserve(t.codes.size());
  for (uint32_t code : t.codes) out.values.push_back(dict.Decode(code));
  out.tids = t.tids;
  return out;
}

bool Subsumes(const FdResultTuple& b, const FdResultTuple& a) {
  assert(a.values.size() == b.values.size());
  for (size_t c = 0; c < a.values.size(); ++c) {
    if (a.values[c].is_null()) continue;
    if (b.values[c].is_null() || !(b.values[c] == a.values[c])) return false;
  }
  return true;
}

size_t NonNullCount(const FdResultTuple& t) {
  size_t n = 0;
  for (const auto& v : t.values) {
    if (!v.is_null()) ++n;
  }
  return n;
}

bool FdTupleLess(const FdResultTuple& a, const FdResultTuple& b) {
  if (a.tids != b.tids) return a.tids < b.tids;
  for (size_t c = 0; c < a.values.size() && c < b.values.size(); ++c) {
    if (a.values[c] == b.values[c]) continue;
    return a.values[c] < b.values[c];
  }
  return a.values.size() < b.values.size();
}

namespace {

/// Output schema names: the "TIDs" provenance column first when asked for.
std::vector<std::string> OutputNames(
    const std::vector<std::string>& column_names, bool include_provenance) {
  std::vector<std::string> names;
  if (include_provenance) names.push_back("TIDs");
  names.insert(names.end(), column_names.begin(), column_names.end());
  return names;
}

/// Renders a provenance set as "{t0,t3}".
Value ProvenanceValue(const std::vector<uint32_t>& tids) {
  std::string prov;
  prov.reserve(2 + tids.size() * 7);
  prov += '{';
  char digits[16];
  for (size_t i = 0; i < tids.size(); ++i) {
    if (i > 0) prov += ',';
    prov += 't';
    const auto end = std::to_chars(digits, digits + sizeof(digits), tids[i]);
    prov.append(digits, end.ptr);
  }
  prov += '}';
  return Value::String(std::move(prov));
}

}  // namespace

Table FdResultsToTable(const std::vector<FdResultTuple>& results,
                       const std::vector<std::string>& column_names,
                       const std::string& table_name,
                       bool include_provenance) {
  const std::vector<std::string> names =
      OutputNames(column_names, include_provenance);
  Table out(table_name, Schema::FromNames(names));
  for (const auto& r : results) {
    std::vector<Value> row;
    row.reserve(names.size());
    if (include_provenance) row.push_back(ProvenanceValue(r.tids));
    row.insert(row.end(), r.values.begin(), r.values.end());
    Status s = out.AppendRow(std::move(row));
    assert(s.ok());
    (void)s;
  }
  return out;
}

Table FdCodesToTable(const std::vector<FdCodeTuple>& rows,
                     const ValueDict& dict,
                     const std::vector<std::string>& column_names,
                     const std::string& table_name, bool include_provenance,
                     ThreadPool* pool) {
  const std::vector<std::string> names =
      OutputNames(column_names, include_provenance);
  const size_t lead = include_provenance ? 1 : 0;
  std::vector<std::vector<Value>> columns(names.size());
  MaybeParallelFor(pool, columns.size(), [&](size_t k) {
    std::vector<Value>& column = columns[k];
    column.reserve(rows.size());
    if (k < lead) {
      for (const FdCodeTuple& r : rows) {
        column.push_back(ProvenanceValue(r.tids));
      }
    } else {
      for (const FdCodeTuple& r : rows) {
        column.push_back(dict.Decode(r.codes[k - lead]));
      }
    }
  });
  Result<Table> out =
      Table::FromColumns(table_name, Schema::FromNames(names),
                         std::move(columns), rows.size());
  assert(out.ok());
  return std::move(out).value();
}

namespace {

uint64_t ValuesSignature(const FdResultTuple& t) {
  uint64_t h = 0x5ca1ab1e;
  for (size_t c = 0; c < t.values.size(); ++c) {
    if (t.values[c].is_null()) continue;
    h = HashCombine(h, HashCombine(Mix64(c), t.values[c].Hash()));
  }
  return h;
}

}  // namespace

std::vector<FdResultTuple> EliminateSubsumed(
    std::vector<FdResultTuple> tuples) {
  // Pass 1: collapse exact duplicates (same values). The survivor is the
  // copy with the most complete provenance (largest TID set), then the
  // lexicographically smallest — this makes the production enumerator
  // (which only materializes maximal sets) and the subset oracle agree
  // tuple-for-tuple, TIDs included.
  auto prefer = [](const FdResultTuple& a, const FdResultTuple& b) {
    if (a.tids.size() != b.tids.size()) {
      return a.tids.size() > b.tids.size();
    }
    return a.tids < b.tids;
  };
  std::unordered_map<uint64_t, std::vector<size_t>> by_sig;
  std::vector<char> dead(tuples.size(), 0);
  for (size_t i = 0; i < tuples.size(); ++i) {
    auto& bucket = by_sig[ValuesSignature(tuples[i])];
    bool merged = false;
    for (size_t j : bucket) {
      if (tuples[j].values == tuples[i].values) {
        if (prefer(tuples[i], tuples[j])) {
          std::swap(tuples[i], tuples[j]);
        }
        dead[i] = 1;
        merged = true;
        break;
      }
    }
    if (!merged) bucket.push_back(i);
  }

  // Pass 2: posting lists over live tuples; each tuple checks only tuples
  // sharing its rarest non-null (column, value).
  struct Key {
    size_t col;
    uint64_t vhash;
    bool operator==(const Key& o) const {
      return col == o.col && vhash == o.vhash;
    }
  };
  struct KeyHasher {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(HashCombine(Mix64(k.col), k.vhash));
    }
  };
  std::unordered_map<Key, std::vector<size_t>, KeyHasher> postings;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (dead[i]) continue;
    for (size_t c = 0; c < tuples[i].values.size(); ++c) {
      if (tuples[i].values[c].is_null()) continue;
      postings[Key{c, tuples[i].values[c].Hash()}].push_back(i);
    }
  }
  size_t live_count = 0;
  for (size_t i = 0; i < tuples.size(); ++i) live_count += !dead[i];
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (dead[i]) continue;
    size_t nn_i = NonNullCount(tuples[i]);
    if (nn_i == 0) {
      // All-null tuple: subsumed by any *other* tuple (vacuously); survives
      // only when it is the sole live tuple. Pass 1 collapsed all-null
      // duplicates to one, so live_count > 1 means a distinct tuple exists.
      if (live_count > 1) dead[i] = 1;
      continue;
    }
    // Rarest posting for tuple i.
    const std::vector<size_t>* best = nullptr;
    for (size_t c = 0; c < tuples[i].values.size(); ++c) {
      if (tuples[i].values[c].is_null()) continue;
      const auto& lst = postings[Key{c, tuples[i].values[c].Hash()}];
      if (best == nullptr || lst.size() < best->size()) best = &lst;
    }
    for (size_t j : *best) {
      if (j == i || dead[j]) continue;
      if (NonNullCount(tuples[j]) <= nn_i) continue;  // equal ⇒ duplicate, handled
      if (Subsumes(tuples[j], tuples[i])) {
        dead[i] = 1;
        break;
      }
    }
  }

  std::vector<FdResultTuple> out;
  out.reserve(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (!dead[i]) out.push_back(std::move(tuples[i]));
  }
  std::sort(out.begin(), out.end(), FdTupleLess);
  return out;
}

namespace {

uint64_t CodesSignature(const FdCodeTuple& t) {
  uint64_t h = 0x5ca1ab1e;
  for (size_t c = 0; c < t.codes.size(); ++c) {
    if (t.codes[c] == ValueDict::kNullCode) continue;
    h = Mix64(h ^ ((static_cast<uint64_t>(c) << 32) | t.codes[c]));
  }
  return h;
}

/// Code-row form of Subsumes: b agrees wherever a is non-null.
bool SubsumesCodes(const FdCodeTuple& b, const FdCodeTuple& a) {
  for (size_t c = 0; c < a.codes.size(); ++c) {
    const uint32_t ac = a.codes[c];
    if (ac == ValueDict::kNullCode) continue;
    if (b.codes[c] != ac) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<FdCodeTuple>> EliminateSubsumedCodes(
    std::vector<FdCodeTuple> tuples, const RequestContext* ctx) {
  const size_t n = tuples.size();
  if (n == 0) return tuples;
  // Cancel/deadline checkpoint, polled every 4096 tuples of each pass.
  auto check_stop = [ctx](size_t i) {
    return ctx == nullptr || (i & 0xfff) != 0 ? Status::OK()
                                              : ctx->CheckStop("subsumption");
  };

  // Pass 1: collapse exact duplicates (same codes). The survivor — most
  // complete provenance, then lexicographically smallest TIDs — is a running
  // maximum under a total preference, so it does not depend on the order
  // the executor appended results in.
  auto prefer = [](const FdCodeTuple& a, const FdCodeTuple& b) {
    if (a.tids.size() != b.tids.size()) {
      return a.tids.size() > b.tids.size();
    }
    return a.tids < b.tids;
  };
  // Rows are found by signature in an open-addressing table; a slot heads
  // the chain (through next_same_sig) of the distinct rows sharing it.
  constexpr uint32_t kNone = UINT32_MAX;
  struct SigSlot {
    uint64_t sig;
    uint32_t head;  ///< kNone marks an empty slot
  };
  size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<SigSlot> by_sig(capacity, SigSlot{0, kNone});
  std::vector<uint32_t> next_same_sig(n, kNone);
  std::vector<char> dead(n, 0);
  std::vector<uint32_t> nn(n);
  for (uint32_t i = 0; i < n; ++i) {
    LAKEFUZZ_RETURN_IF_ERROR(check_stop(i));
    uint32_t count = 0;
    for (uint32_t code : tuples[i].codes) {
      count += code != ValueDict::kNullCode;
    }
    nn[i] = count;
    const uint64_t sig = CodesSignature(tuples[i]);
    size_t h = sig & mask;
    while (by_sig[h].head != kNone && by_sig[h].sig != sig) h = (h + 1) & mask;
    SigSlot& slot = by_sig[h];
    for (uint32_t j = slot.head; j != kNone; j = next_same_sig[j]) {
      if (tuples[j].codes == tuples[i].codes) {
        // nn depends only on codes, so the swap keeps it consistent.
        if (prefer(tuples[i], tuples[j])) std::swap(tuples[i], tuples[j]);
        dead[i] = 1;
        break;
      }
    }
    if (dead[i]) continue;
    slot.sig = sig;
    next_same_sig[i] = slot.head;
    slot.head = i;
  }

  // Pass 2: posting lists over live tuples, keyed by (column, code)
  // (fd/posting_lists.h). Single-tuple lists are dropped: a tuple holding a
  // value no other live tuple holds has no subsumer.
  const size_t cols = tuples[0].codes.size();
  const PostingLists lists = BuildPostingLists(
      n, cols, 2, [&](size_t i) -> const uint32_t* {
        return dead[i] ? nullptr : tuples[i].codes.data();
      });
  LAKEFUZZ_RETURN_IF_ERROR(check_stop(0));

  // Pass 3: each tuple checks only the tuples sharing its rarest non-null
  // (column, code), read from its cells' list ids. Runs against the pass-1
  // snapshot of `dead`, which gives the same survivor set as updating it in
  // place: any subsumer that is itself subsumed is subsumed by a
  // strictly-more-complete live tuple appearing in the same posting lists,
  // so reachability of a live subsumer is order-independent.
  size_t live_count = 0;
  for (size_t i = 0; i < n; ++i) live_count += !dead[i];
  std::vector<char> dead_out = dead;
  for (size_t i = 0; i < n; ++i) {
    LAKEFUZZ_RETURN_IF_ERROR(check_stop(i));
    if (dead[i]) continue;
    const uint32_t nn_i = nn[i];
    if (nn_i == 0) {
      // All-null tuple: subsumed by any *other* tuple (vacuously); survives
      // only when it is the sole live tuple. Pass 1 collapsed all-null
      // duplicates to one, so live_count > 1 means a distinct tuple exists.
      if (live_count > 1) dead_out[i] = 1;
      continue;
    }
    const uint32_t* codes = tuples[i].codes.data();
    const uint32_t* cell = lists.cell_list.data() + i * cols;
    uint32_t best = PostingLists::kNoList;
    bool unique_value = false;
    for (size_t c = 0; c < cols && !unique_value; ++c) {
      if (codes[c] == ValueDict::kNullCode) continue;
      if (cell[c] == PostingLists::kNoList) {
        unique_value = true;
      } else if (best == PostingLists::kNoList ||
                 lists.ListSize(cell[c]) < lists.ListSize(best)) {
        best = cell[c];
      }
    }
    if (unique_value) continue;
    for (uint64_t e = lists.offsets[best]; e < lists.offsets[best + 1]; ++e) {
      const uint32_t j = lists.rows[e];
      if (j == i) continue;
      if (nn[j] <= nn_i) continue;  // equal ⇒ duplicate, handled in pass 1
      if (SubsumesCodes(tuples[j], tuples[i])) {
        dead_out[i] = 1;
        break;
      }
    }
  }

  // Surviving FD tuples never share a TID set (values are a function of the
  // member set, and identical code rows were collapsed in pass 1), so TID
  // order alone is total — and matches FdTupleLess on the decoded tuples.
  // The survivors sort by a key packing their first two TIDs, which agrees
  // with lexicographic TID order wherever it differs; ties compare in full.
  std::vector<std::pair<uint64_t, uint32_t>> order;
  order.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (dead_out[i]) continue;
    const std::vector<uint32_t>& tids = tuples[i].tids;
    uint64_t key = 0;
    if (!tids.empty()) key = static_cast<uint64_t>(tids[0]) << 32;
    if (tids.size() > 1) key += static_cast<uint64_t>(tids[1]) + 1;
    order.emplace_back(key, i);
  }
  std::sort(order.begin(), order.end(),
            [&tuples](const std::pair<uint64_t, uint32_t>& a,
                      const std::pair<uint64_t, uint32_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              return tuples[a.second].tids < tuples[b.second].tids;
            });
  std::vector<FdCodeTuple> out;
  out.reserve(order.size());
  for (const auto& [key, i] : order) out.push_back(std::move(tuples[i]));
  return out;
}

}  // namespace lakefuzz
