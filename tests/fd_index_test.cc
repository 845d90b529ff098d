// Tests for the dictionary-encoded FD core: ValueDict interning, the CSR
// posting-list join graph (validated against a brute-force materialized
// adjacency), the parallel index build, the non-quadratic memory guarantee,
// thread-count invariance of the full pipeline on a corrupted-IMDB fixture,
// the posting columns and same-table runs behind the enumerator's
// extension sweep, search-tree pins for that sweep, and the empty and
// all-null table edge contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "core/fuzzy_fd.h"
#include "datagen/corruption.h"
#include "datagen/imdb.h"
#include "embedding/model_zoo.h"
#include "fd/full_disjunction.h"
#include "fd/oracle.h"
#include "fd/parallel.h"
#include "fd/posting_lists.h"
#include "fd/problem.h"
#include "fd/session_dict.h"
#include "fd/value_dict.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

Value S(const char* s) { return Value::String(s); }

// ---------------------------------------------------------------- ValueDict

TEST(ValueDictTest, InternAssignsDenseCodesInFirstSeenOrder) {
  ValueDict dict;
  EXPECT_EQ(dict.Intern(Value::Null()), ValueDict::kNullCode);
  uint32_t a = dict.Intern(S("alpha"));
  uint32_t b = dict.Intern(S("beta"));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(dict.Intern(S("alpha")), a);  // idempotent
  EXPECT_EQ(dict.NumDistinct(), 2u);
  EXPECT_EQ(dict.Decode(a), S("alpha"));
  EXPECT_EQ(dict.Decode(b), S("beta"));
  EXPECT_TRUE(dict.Decode(ValueDict::kNullCode).is_null());
}

TEST(ValueDictTest, TypeSensitiveLikeValueEquality) {
  // FD joins on value identity; Int(1), Double(1.0), String("1") must not
  // alias under interning.
  ValueDict dict;
  uint32_t i = dict.Intern(Value::Int(1));
  uint32_t d = dict.Intern(Value::Double(1.0));
  uint32_t s = dict.Intern(S("1"));
  EXPECT_NE(i, d);
  EXPECT_NE(i, s);
  EXPECT_NE(d, s);
  EXPECT_EQ(dict.Find(Value::Int(1)), i);
  EXPECT_EQ(dict.Find(Value::Double(1.0)), d);
  EXPECT_EQ(dict.Find(S("missing")), ValueDict::kNullCode);
}

TEST(ValueDictTest, SurvivesRehashGrowth) {
  ValueDict dict;
  std::vector<uint32_t> codes;
  for (int i = 0; i < 5000; ++i) {
    codes.push_back(dict.Intern(Value::Int(i)));
  }
  EXPECT_EQ(dict.NumDistinct(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(dict.Intern(Value::Int(i)), codes[i]);
    EXPECT_EQ(dict.Decode(codes[i]), Value::Int(i));
  }
}

/// Value i of a synthetic dictionary: mixed types, every one distinct.
Value NthValue(uint32_t i) {
  switch (i % 3) {
    case 0:
      return Value::Int(i);
    case 1:
      return Value::String("v" + std::to_string(i));
    default:
      return Value::Double(i + 0.5);
  }
}

/// Restores codes 1..count of `dict`, value(code) = NthValue(code - 1)
/// unless `value_of` says otherwise.
uint32_t RestoreNth(ValueDict* dict, uint32_t count, ThreadPool* pool,
                    const std::function<Value(uint32_t)>& value_of =
                        [](uint32_t code) { return NthValue(code - 1); }) {
  return dict->RestoreAll(
      count, pool,
      [&](uint32_t begin, uint32_t end, Value* values, uint64_t* hashes) {
        for (uint32_t code = begin; code < end; ++code) {
          values[code - begin] = value_of(code);
          hashes[code - begin] = values[code - begin].Hash();
        }
      });
}

TEST(ValueDictTest, RestoreAllMatchesInterningAtAnyPoolSize) {
  // Spans several storage buckets and restore ranges.
  constexpr uint32_t kCount = 20000;
  ValueDict interned;
  for (uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(interned.Intern(NthValue(i)), i + 1);
  }
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    ValueDict restored;
    EXPECT_EQ(RestoreNth(&restored, kCount, p), ValueDict::kNullCode);
    ASSERT_EQ(restored.NumDistinct(), kCount);
    for (uint32_t code = 1; code <= kCount; ++code) {
      ASSERT_EQ(restored.Decode(code), interned.Decode(code));
      ASSERT_EQ(restored.HashOf(code), interned.HashOf(code));
      ASSERT_EQ(restored.Find(restored.Decode(code)), code);
    }
    // Interning goes on past the restored codes and finds restored values.
    EXPECT_EQ(restored.Intern(NthValue(7)), 8u);
    EXPECT_EQ(restored.Intern(S("fresh")), kCount + 1);
  }
}

TEST(ValueDictTest, RestoreAllReportsTheSmallestRepeatedCode) {
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    ValueDict restored;
    // Codes 3000 and 1500 repeat code 10's value.
    EXPECT_EQ(RestoreNth(&restored, 5000, p,
                         [](uint32_t code) {
                           return NthValue(code == 1500 || code == 3000
                                               ? 9
                                               : code - 1);
                         }),
              1500u);
  }
}

TEST(ValueDictTest, AdoptIfEmptyKeepsCodesAndRefusesANonEmptyDictionary) {
  ValueDict restored;
  ASSERT_EQ(RestoreNth(&restored, 5000, nullptr), ValueDict::kNullCode);
  ValueDict dict;
  const Value* null_slot = &dict.Decode(ValueDict::kNullCode);
  ASSERT_TRUE(dict.AdoptIfEmpty(std::move(restored)));
  EXPECT_EQ(&dict.Decode(ValueDict::kNullCode), null_slot);
  ASSERT_EQ(dict.NumDistinct(), 5000u);
  for (uint32_t code = 1; code <= 5000; ++code) {
    ASSERT_EQ(dict.Decode(code), NthValue(code - 1));
    ASSERT_EQ(dict.Find(NthValue(code - 1)), code);
  }
  ValueDict more;
  ASSERT_EQ(RestoreNth(&more, 3, nullptr), ValueDict::kNullCode);
  EXPECT_FALSE(dict.AdoptIfEmpty(std::move(more)));
  EXPECT_EQ(dict.NumDistinct(), 5000u);
}

/// Interning threads race an adoption of the same values: whichever side
/// wins, every value ends up under exactly one code.
TEST(ValueDictTest, AdoptIfEmptyRacingInternsNeverDuplicatesAValue) {
  constexpr uint32_t kCount = 2000;
  for (int round = 0; round < 20; ++round) {
    ValueDict dict;
    ValueDict restored;
    ASSERT_EQ(RestoreNth(&restored, kCount, nullptr), ValueDict::kNullCode);
    std::atomic<bool> go{false};
    std::vector<std::thread> interners;
    for (uint32_t t = 0; t < 3; ++t) {
      interners.emplace_back([&, t] {
        while (!go.load()) {
        }
        for (uint32_t i = t; i < kCount; i += 3) dict.Intern(NthValue(i));
      });
    }
    go.store(true);
    dict.AdoptIfEmpty(std::move(restored));
    for (std::thread& th : interners) th.join();
    ASSERT_EQ(dict.NumDistinct(), kCount) << "round " << round;
    for (uint32_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(dict.Decode(dict.Find(NthValue(i))), NthValue(i));
    }
  }
}

// ------------------------------------------------- CSR vs. brute adjacency

struct IndexShape {
  size_t num_tables;
  size_t rows_per_table;
  size_t num_columns;
  size_t value_domain;
  uint64_t seed;
};

FdProblem RandomProblem(const IndexShape& shape, Rng* rng) {
  std::vector<std::string> names;
  for (size_t c = 0; c < shape.num_columns; ++c) {
    names.push_back("c" + std::to_string(c));
  }
  FdProblem problem(shape.num_columns, names);
  for (size_t l = 0; l < shape.num_tables; ++l) {
    for (size_t r = 0; r < shape.rows_per_table; ++r) {
      std::vector<Value> vals(shape.num_columns);
      for (size_t c = 0; c < shape.num_columns; ++c) {
        if (rng->Bernoulli(0.35)) continue;  // null
        vals[c] = Value::String(std::string(
            1, static_cast<char>('a' + rng->Uniform(shape.value_domain))));
      }
      EXPECT_TRUE(
          problem.AddTuple(static_cast<uint32_t>(l), std::move(vals)).ok());
    }
  }
  return problem;
}

/// The legacy definition, materialized pairwise: i and j are adjacent iff
/// they share an equal non-null value on some column.
std::vector<std::vector<uint32_t>> BruteAdjacency(const FdProblem& problem) {
  const size_t n = problem.num_tuples();
  std::vector<std::vector<uint32_t>> adj(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      const auto& a = problem.tuples()[i].values;
      const auto& b = problem.tuples()[j].values;
      for (size_t c = 0; c < problem.num_columns(); ++c) {
        if (!a[c].is_null() && !b[c].is_null() && a[c] == b[c]) {
          adj[i].push_back(j);
          adj[j].push_back(i);
          break;
        }
      }
    }
  }
  return adj;
}

/// Connected components over the brute adjacency (BFS), in the same
/// canonical form as FdProblem::Components().
std::vector<std::vector<uint32_t>> BruteComponents(
    const std::vector<std::vector<uint32_t>>& adj) {
  const size_t n = adj.size();
  std::vector<char> visited(n, 0);
  std::vector<std::vector<uint32_t>> comps;
  for (uint32_t start = 0; start < n; ++start) {
    if (visited[start]) continue;
    std::vector<uint32_t> comp;
    std::vector<uint32_t> frontier{start};
    visited[start] = 1;
    while (!frontier.empty()) {
      uint32_t t = frontier.back();
      frontier.pop_back();
      comp.push_back(t);
      for (uint32_t nb : adj[t]) {
        if (!visited[nb]) {
          visited[nb] = 1;
          frontier.push_back(nb);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

class CsrIndexProperty : public ::testing::TestWithParam<IndexShape> {};

TEST_P(CsrIndexProperty, NeighborsAndComponentsMatchBruteForce) {
  Rng rng(GetParam().seed);
  for (int trial = 0; trial < 10; ++trial) {
    FdProblem problem = RandomProblem(GetParam(), &rng);
    problem.BuildIndex();
    auto brute = BruteAdjacency(problem);
    for (uint32_t tid = 0; tid < problem.num_tuples(); ++tid) {
      EXPECT_EQ(problem.Neighbors(tid), brute[tid])
          << "trial " << trial << " tid " << tid;
    }
    EXPECT_EQ(problem.Components(), BruteComponents(brute)) << trial;
  }
}

TEST_P(CsrIndexProperty, ParallelBuildMatchesSerial) {
  Rng rng(GetParam().seed ^ 0xABCD);
  for (int trial = 0; trial < 5; ++trial) {
    FdProblem serial = RandomProblem(GetParam(), &rng);
    FdProblem parallel = serial;
    serial.BuildIndex();
    ThreadPool pool(4);
    parallel.BuildIndex(&pool);
    ASSERT_EQ(serial.num_tuples(), parallel.num_tuples());
    for (uint32_t tid = 0; tid < serial.num_tuples(); ++tid) {
      EXPECT_EQ(serial.Neighbors(tid), parallel.Neighbors(tid)) << tid;
      // Code rows must be identical too: interning order is defined by the
      // problem, not the shard schedule.
      for (size_t c = 0; c < serial.num_columns(); ++c) {
        EXPECT_EQ(serial.CodeRow(tid)[c], parallel.CodeRow(tid)[c]);
      }
    }
    EXPECT_EQ(serial.Components(), parallel.Components());
    EXPECT_EQ(serial.index_stats().posting_entries,
              parallel.index_stats().posting_entries);
    EXPECT_EQ(serial.index_stats().posting_lists,
              parallel.index_stats().posting_lists);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CsrIndexProperty,
    ::testing::Values(IndexShape{2, 4, 3, 2, 101}, IndexShape{3, 6, 3, 3, 202},
                      IndexShape{4, 8, 4, 2, 303}, IndexShape{3, 10, 5, 4, 404},
                      IndexShape{5, 5, 4, 6, 505}, IndexShape{2, 12, 2, 3, 606}),
    [](const ::testing::TestParamInfo<IndexShape>& info) {
      const auto& p = info.param;
      return "t" + std::to_string(p.num_tables) + "r" +
             std::to_string(p.rows_per_table) + "c" +
             std::to_string(p.num_columns) + "d" +
             std::to_string(p.value_domain);
    });

// ------------------------------------------------ flat posting-list kernel

/// One posting list of the std::map reference.
struct RefList {
  uint32_t column = 0;
  uint32_t code = 0;
  std::vector<uint32_t> rows;
};

/// std::map reference of BuildPostingLists: the (column, code) lists over
/// the rows not skipped, numbered by first occurrence in row-major order,
/// rows ascending, lists below `min_size` rows dropped.
std::vector<RefList> ReferencePostingLists(
    size_t num_rows, size_t cols, size_t min_size,
    const std::function<const uint32_t*(size_t)>& row) {
  std::map<std::pair<uint32_t, uint32_t>, size_t> index;
  std::vector<RefList> all;
  for (size_t i = 0; i < num_rows; ++i) {
    const uint32_t* r = row(i);
    if (r == nullptr) continue;
    for (size_t c = 0; c < cols; ++c) {
      if (r[c] == ValueDict::kNullCode) continue;
      const auto key = std::make_pair(static_cast<uint32_t>(c), r[c]);
      auto [it, inserted] = index.emplace(key, all.size());
      if (inserted) all.push_back(RefList{key.first, key.second, {}});
      all[it->second].rows.push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<RefList> kept;
  for (RefList& list : all) {
    if (list.rows.size() >= min_size) kept.push_back(std::move(list));
  }
  return kept;
}

/// BuildPostingLists against the reference: same lists in the same order,
/// same columns, same ascending rows, and every cell names its own list
/// (kNoList where null, skipped, or dropped).
void ExpectPostingListsMatchReference(
    size_t num_rows, size_t cols, size_t min_size,
    const std::function<const uint32_t*(size_t)>& row) {
  const PostingLists lists = BuildPostingLists(num_rows, cols, min_size, row);
  const std::vector<RefList> ref =
      ReferencePostingLists(num_rows, cols, min_size, row);
  ASSERT_EQ(lists.num_lists(), ref.size());
  ASSERT_EQ(lists.offsets.size(), ref.size() + 1);
  ASSERT_EQ(lists.offsets.back(), lists.rows.size());
  ASSERT_EQ(lists.cell_list.size(), num_rows * cols);
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> id_of;
  for (uint32_t l = 0; l < ref.size(); ++l) {
    EXPECT_EQ(lists.columns[l], ref[l].column) << l;
    ASSERT_EQ(lists.ListSize(l), ref[l].rows.size()) << l;
    EXPECT_TRUE(std::equal(ref[l].rows.begin(), ref[l].rows.end(),
                           lists.rows.begin() + lists.offsets[l]))
        << l;
    id_of[{ref[l].column, ref[l].code}] = l;
  }
  for (size_t i = 0; i < num_rows; ++i) {
    const uint32_t* r = row(i);
    for (size_t c = 0; c < cols; ++c) {
      uint32_t expected = PostingLists::kNoList;
      if (r != nullptr && r[c] != ValueDict::kNullCode) {
        auto it = id_of.find({static_cast<uint32_t>(c), r[c]});
        if (it != id_of.end()) expected = it->second;
      }
      EXPECT_EQ(lists.cell_list[i * cols + c], expected)
          << "row " << i << " col " << c;
    }
  }
}

TEST(PostingListsTest, MatchesMapReferenceOnRandomRows) {
  // Nulls, skipped rows, every column drawing from one code domain (so one
  // code posts in several columns), and 0- and 1-row inputs.
  Rng rng(0x9057);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t num_rows =
        trial % 10 == 0 ? 0 : trial % 10 == 1 ? 1 : 1 + rng.Uniform(80);
    const size_t cols = 1 + rng.Uniform(5);
    const uint64_t domain = 1 + rng.Uniform(9);
    std::vector<std::vector<uint32_t>> rows(num_rows);
    std::vector<char> skip(num_rows, 0);
    for (size_t i = 0; i < num_rows; ++i) {
      skip[i] = rng.Bernoulli(0.15);
      for (size_t c = 0; c < cols; ++c) {
        rows[i].push_back(rng.Bernoulli(0.3)
                              ? ValueDict::kNullCode
                              : 1 + static_cast<uint32_t>(rng.Uniform(domain)));
      }
    }
    auto row = [&](size_t i) -> const uint32_t* {
      return skip[i] ? nullptr : rows[i].data();
    };
    for (size_t min_size : {size_t{1}, size_t{2}, size_t{3}}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " min_size "
                                      << min_size);
      ExpectPostingListsMatchReference(num_rows, cols, min_size, row);
    }
  }
}

TEST(PostingListsTest, OneCodeInSeveralColumnsPostsOncePerColumn) {
  const std::vector<std::vector<uint32_t>> rows = {
      {5, 5, 0}, {0, 7, 5}, {5, 0, 5}};
  const PostingLists lists = BuildPostingLists(
      rows.size(), 3, 1, [&](size_t i) { return rows[i].data(); });
  // First occurrence, row-major: (0,5) (1,5) (1,7) (2,5).
  EXPECT_EQ(lists.columns, (std::vector<uint32_t>{0, 1, 1, 2}));
  EXPECT_EQ(lists.offsets, (std::vector<uint64_t>{0, 2, 3, 4, 6}));
  EXPECT_EQ(lists.rows, (std::vector<uint32_t>{0, 2, 0, 1, 1, 2}));
  constexpr uint32_t kNo = PostingLists::kNoList;
  EXPECT_EQ(lists.cell_list,
            (std::vector<uint32_t>{0, 1, kNo, kNo, 2, 3, 0, kNo, 3}));
}

size_t ExpectRunsWellFormed(const FdProblem& problem);

/// The CSR postings of a built problem against the reference over its code
/// rows: posting p is reference list p (singletons dropped), and its runs
/// are well formed.
void ExpectPostingsMatchReference(const FdProblem& problem) {
  const std::vector<RefList> ref = ReferencePostingLists(
      problem.num_tuples(), problem.num_columns(), 2,
      [&](size_t tid) { return problem.CodeRow(static_cast<uint32_t>(tid)); });
  ASSERT_EQ(problem.index_stats().posting_lists, ref.size());
  size_t entries = 0;
  for (uint32_t p = 0; p < ref.size(); ++p) {
    EXPECT_EQ(problem.PostingColumn(p), ref[p].column) << p;
    const auto [tid_begin, tid_end] = problem.PostingTids(p);
    ASSERT_EQ(std::vector<uint32_t>(tid_begin, tid_end), ref[p].rows) << p;
    entries += ref[p].rows.size();
  }
  EXPECT_EQ(problem.index_stats().posting_entries, entries);
  ExpectRunsWellFormed(problem);
}

// ---------------------------------------------------------- index at scale

TEST(CsrIndexLargeTest, PooledBuildMatchesReference) {
  // 30k tuples × 6 columns = 180k cells. The serial and pooled builds (the
  // pool only hashes cells before interning) must both equal the reference
  // postings, and each other in everything observable.
  constexpr uint32_t kTuples = 30000;
  constexpr size_t kCols = 6;
  std::vector<std::string> names;
  for (size_t c = 0; c < kCols; ++c) names.push_back("c" + std::to_string(c));
  FdProblem serial(kCols, names);
  Rng rng(777);
  for (uint32_t i = 0; i < kTuples; ++i) {
    std::vector<Value> vals(kCols);
    for (size_t c = 0; c < kCols; ++c) {
      if (rng.Bernoulli(0.3)) continue;  // null
      // ~5k distinct join values → thousands of multi-tuple postings.
      vals[c] = Value::Int(static_cast<int64_t>(rng.Uniform(5000)));
    }
    ASSERT_TRUE(serial.AddTuple(i % 5, std::move(vals)).ok());
  }
  FdProblem parallel = serial;
  serial.BuildIndex();
  ThreadPool pool(8);
  parallel.BuildIndex(&pool);
  EXPECT_GT(serial.index_stats().posting_entries, size_t{1} << 16);
  ExpectPostingsMatchReference(serial);
  ExpectPostingsMatchReference(parallel);
  EXPECT_EQ(serial.index_stats().posting_runs,
            parallel.index_stats().posting_runs);
  EXPECT_EQ(serial.index_stats().distinct_values,
            parallel.index_stats().distinct_values);
  ASSERT_EQ(serial.Components(), parallel.Components());
  for (uint32_t tid = 0; tid < kTuples; tid += 97) {
    ASSERT_EQ(serial.Neighbors(tid), parallel.Neighbors(tid)) << tid;
  }
  for (uint32_t tid = 0; tid < kTuples; ++tid) {
    ASSERT_EQ(0, std::memcmp(serial.CodeRow(tid), parallel.CodeRow(tid),
                             kCols * sizeof(uint32_t)))
        << tid;
  }
}

/// Decodes code tuples through `dict` (EliminateSubsumed's input form).
std::vector<FdResultTuple> DecodeAll(const std::vector<FdCodeTuple>& tuples,
                                     const ValueDict& dict) {
  std::vector<FdResultTuple> out;
  for (const FdCodeTuple& t : tuples) out.push_back(DecodeCodeTuple(t, dict));
  return out;
}

/// EliminateSubsumedCodes against EliminateSubsumed on the decoded tuples:
/// the same survivors, values and TIDs, in the same order.
void ExpectSubsumptionMatchesDecoded(const std::vector<FdCodeTuple>& tuples,
                                     const ValueDict& dict) {
  auto codes = EliminateSubsumedCodes(tuples);
  ASSERT_TRUE(codes.ok()) << codes.status().ToString();
  const std::vector<FdResultTuple> expected =
      EliminateSubsumed(DecodeAll(tuples, dict));
  ASSERT_EQ(DecodeAll(*codes, dict), expected);
}

TEST(CsrIndexLargeTest, SubsumptionMatchesDecodedReference) {
  // 24k tuples × 6 columns; codes from a small domain with frequent nulls
  // so duplicates and genuine subsumption chains both occur.
  constexpr uint32_t kTuples = 24000;
  constexpr size_t kCols = 6;
  ValueDict dict;
  for (uint32_t i = 0; i < 40; ++i) ASSERT_EQ(dict.Intern(NthValue(i)), i + 1);
  Rng rng(888);
  std::vector<FdCodeTuple> tuples(kTuples);
  for (uint32_t i = 0; i < kTuples; ++i) {
    tuples[i].codes.resize(kCols, ValueDict::kNullCode);
    for (size_t c = 0; c < kCols; ++c) {
      if (rng.Bernoulli(0.4)) continue;
      tuples[i].codes[c] = 1 + static_cast<uint32_t>(rng.Uniform(40));
    }
    tuples[i].tids = {i};
  }
  auto survivors = EliminateSubsumedCodes(tuples);
  ASSERT_TRUE(survivors.ok()) << survivors.status().ToString();
  ASSERT_GT(survivors->size(), 0u);
  ASSERT_LT(survivors->size(), static_cast<size_t>(kTuples));  // some dropped
  ExpectSubsumptionMatchesDecoded(tuples, dict);
}

TEST(CsrIndexLargeTest, SubsumptionMatchesDecodedOnDuplicatesAndAllNulls) {
  // Tiny random sets with injected exact duplicates (differing provenance)
  // and all-null rows. Every TID set is distinct: {i} plus extras >= n.
  ValueDict dict;
  for (uint32_t i = 0; i < 4; ++i) ASSERT_EQ(dict.Intern(NthValue(i)), i + 1);
  Rng rng(0x5b5);
  for (int trial = 0; trial < 400; ++trial) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(30));
    const size_t cols = 1 + rng.Uniform(4);
    std::vector<FdCodeTuple> tuples(n);
    for (uint32_t i = 0; i < n; ++i) {
      FdCodeTuple& t = tuples[i];
      if (i > 0 && rng.Bernoulli(0.25)) {
        t.codes = tuples[rng.Uniform(i)].codes;  // exact duplicate
      } else if (rng.Bernoulli(0.1)) {
        t.codes.assign(cols, ValueDict::kNullCode);  // all-null
      } else {
        for (size_t c = 0; c < cols; ++c) {
          t.codes.push_back(rng.Bernoulli(0.4)
                                ? ValueDict::kNullCode
                                : 1 + static_cast<uint32_t>(rng.Uniform(4)));
        }
      }
      t.tids = {i};
      const uint64_t extras = rng.Uniform(3);
      for (uint64_t extra = 0; extra < extras; ++extra) {
        t.tids.push_back(n + static_cast<uint32_t>(rng.Uniform(8)));
      }
      std::sort(t.tids.begin(), t.tids.end());
      t.tids.erase(std::unique(t.tids.begin(), t.tids.end()), t.tids.end());
    }
    SCOPED_TRACE(trial);
    ExpectSubsumptionMatchesDecoded(tuples, dict);
  }
}

TEST(CsrIndexLargeTest, EliminateSubsumedCodesAllNullTuples) {
  // Mirrors SubsumptionTest.AllNullTuples on the code path: all-null
  // duplicates collapse to one survivor; any non-null tuple eliminates it.
  auto make = [](std::vector<uint32_t> codes, uint32_t tid) {
    FdCodeTuple t;
    t.codes = std::move(codes);
    t.tids = {tid};
    return t;
  };
  auto only_nulls =
      EliminateSubsumedCodes({make({0, 0}, 0), make({0, 0}, 1)});
  ASSERT_TRUE(only_nulls.ok());
  ASSERT_EQ(only_nulls->size(), 1u);
  auto mixed = EliminateSubsumedCodes({make({0, 0}, 0), make({5, 0}, 1)});
  ASSERT_TRUE(mixed.ok());
  ASSERT_EQ(mixed->size(), 1u);
  EXPECT_EQ((*mixed)[0].codes[0], 5u);
}

// ------------------------------------------------------ non-quadratic index

TEST(CsrIndexStressTest, SharedValueByManyTuplesStaysLinear) {
  // One value shared by 10k tuples: the legacy adjacency materialized
  // ~10^8 edges here; the CSR index must store one posting list of 10k
  // entries. Runs under ASan in CI, so an accidental O(k²) regression blows
  // the time/memory budget immediately.
  constexpr uint32_t kTuples = 10000;
  FdProblem problem(2, {"shared", "unique"});
  for (uint32_t i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(problem
                    .AddTuple(i % 2, {S("hub"),
                                      Value::Int(static_cast<int64_t>(i))})
                    .ok());
  }
  problem.BuildIndex();
  // One multi-tuple posting list ("hub") with kTuples entries; the unique
  // ints contribute none.
  EXPECT_EQ(problem.index_stats().posting_lists, 1u);
  EXPECT_EQ(problem.index_stats().posting_entries, kTuples);
  EXPECT_EQ(problem.index_stats().distinct_values, 1u + kTuples);
  ASSERT_EQ(problem.Components().size(), 1u);
  EXPECT_EQ(problem.Components()[0].size(), kTuples);
  EXPECT_EQ(problem.Neighbors(0).size(), kTuples - 1);
  EXPECT_EQ(problem.Neighbors(kTuples / 2).size(), kTuples - 1);
}

// ------------------------------------------- thread-count output invariance

/// A small corrupted-IMDB instance: the generator's equi-join topology with
/// seeded syntactic noise injected into a fraction of the string cells.
std::vector<Table> CorruptedImdbTables() {
  ImdbOptions gen;
  gen.target_tuples = 600;
  ImdbBenchmark bench = GenerateImdb(gen);
  Rng rng(20260730);
  CorruptionConfig config;
  config.typo = 1.0;
  config.case_noise = 0.5;
  for (Table& t : bench.tables) {
    for (size_t r = 0; r < t.NumRows(); ++r) {
      for (size_t c = 0; c < t.NumColumns(); ++c) {
        const Value& v = t.At(r, c);
        if (v.is_null() || v.type() != ValueType::kString) continue;
        if (!rng.Bernoulli(0.08)) continue;
        t.Set(r, c, Value::String(Corrupt(&rng, v.AsString(), config)));
      }
    }
  }
  return std::move(bench.tables);
}

TEST(ThreadInvarianceTest, CorruptedImdbIdenticalAcrossThreadCounts) {
  auto tables = CorruptedImdbTables();
  auto aligned = AlignByName(tables);
  ASSERT_TRUE(aligned.ok());

  FuzzyFdOptions serial_opts;
  serial_opts.matcher.model = MakeModel(ModelKind::kMistral);
  auto reference =
      FuzzyFullDisjunction(serial_opts).RunToTuples(tables, *aligned);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->tuples.size(), 0u);

  for (size_t threads : {1u, 2u, 8u}) {
    FuzzyFdOptions opts = serial_opts;
    opts.parallel = true;
    opts.num_threads = threads;
    auto result = FuzzyFullDisjunction(opts).RunToTuples(tables, *aligned);
    ASSERT_TRUE(result.ok()) << threads;
    ASSERT_EQ(result->tuples.size(), reference->tuples.size()) << threads;
    for (size_t i = 0; i < result->tuples.size(); ++i) {
      EXPECT_EQ(result->tuples[i].values, reference->tuples[i].values)
          << "threads " << threads << " tuple " << i;
      EXPECT_EQ(result->tuples[i].tids, reference->tuples[i].tids)
          << "threads " << threads << " tuple " << i;
    }
  }
}

TEST(ThreadInvarianceTest, RegularFdOnCorruptedImdbMatchesSerial) {
  auto tables = CorruptedImdbTables();
  auto aligned = AlignByName(tables);
  ASSERT_TRUE(aligned.ok());
  FuzzyFdReport serial_report;
  auto serial = RegularFdBaseline(tables, *aligned, FdOptions(),
                                  /*parallel=*/false, 0, &serial_report);
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial_report.fd_stats.posting_lists, 0u);
  for (size_t threads : {2u, 8u}) {
    auto parallel = RegularFdBaseline(tables, *aligned, FdOptions(),
                                      /*parallel=*/true, threads, nullptr);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->tuples.size(), serial->tuples.size());
    for (size_t i = 0; i < parallel->tuples.size(); ++i) {
      EXPECT_EQ(parallel->tuples[i].values, serial->tuples[i].values);
      EXPECT_EQ(parallel->tuples[i].tids, serial->tuples[i].tids);
    }
  }
}

// ------------------------------------- posting columns and same-table runs

/// `shape.num_tables` tables over one shared column set, for the
/// BuildInterned path (TIDs numbered table by table).
std::vector<Table> RandomTables(const IndexShape& shape, Rng* rng) {
  std::vector<std::string> names;
  for (size_t c = 0; c < shape.num_columns; ++c) {
    names.push_back("c" + std::to_string(c));
  }
  std::vector<Table> tables;
  for (size_t l = 0; l < shape.num_tables; ++l) {
    Table t("t" + std::to_string(l), Schema::FromNames(names));
    for (size_t r = 0; r < shape.rows_per_table; ++r) {
      std::vector<Value> vals(shape.num_columns);
      for (size_t c = 0; c < shape.num_columns; ++c) {
        if (rng->Bernoulli(0.35)) continue;  // null
        vals[c] = Value::String(std::string(
            1, static_cast<char>('a' + rng->Uniform(shape.value_domain))));
      }
      EXPECT_TRUE(t.AppendRow(std::move(vals)).ok());
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

/// The same tuples re-added with table ids drawn per tuple, so one table's
/// TIDs are scattered through the TID order and posting lists interleave
/// tables (the relabelling of FullDisjunctionTest.RandomizedOrderInvariance,
/// pushed further).
FdProblem InterleavedProblem(const IndexShape& shape, Rng* rng) {
  FdProblem source = RandomProblem(shape, rng);
  FdProblem out(source.num_columns(), source.column_names());
  for (const auto& t : source.tuples()) {
    const auto table = static_cast<uint32_t>(rng->Uniform(shape.num_tables));
    EXPECT_TRUE(out.AddTuple(table, t.values).ok());
  }
  return out;
}

/// What the live sweep of `tid` must visit, from the definition: for every
/// live column c (all of them when `live` is null) on which `tid` is
/// non-null, each other tuple with the same code on c whose table is not
/// used — once per column, as ForEachCoPosted visits a tuple once per
/// shared posting list. Sorted.
std::vector<uint32_t> ExpectedLiveCoPosted(const FdProblem& problem,
                                           uint32_t tid,
                                           const std::vector<char>& used,
                                           const std::vector<char>* live) {
  std::vector<uint32_t> out;
  const uint32_t* row = problem.CodeRow(tid);
  for (size_t c = 0; c < problem.num_columns(); ++c) {
    if (row[c] == FdProblem::kNullCode) continue;
    if (live != nullptr && !(*live)[c]) continue;
    for (uint32_t u = 0; u < problem.num_tuples(); ++u) {
      if (u != tid && problem.CodeRow(u)[c] == row[c] &&
          !used[problem.table_id(u)]) {
        out.push_back(u);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The index contract of the enumerator's extension sweep: for every TID,
/// ForEachCoPosted equals the per-column definition, and ForEachLiveCoPosted
/// under sampled used-table and live-column masks visits exactly the
/// ForEachCoPosted entries whose table is unmarked and whose posting column
/// is marked (as a multiset).
void ExpectLiveSweepContract(const FdProblem& problem, Rng* rng) {
  const size_t tables = problem.num_tables();
  const size_t cols = problem.num_columns();
  for (uint32_t tid = 0; tid < problem.num_tuples(); ++tid) {
    std::vector<uint32_t> all;
    problem.ForEachCoPosted(tid, [&](uint32_t u) { all.push_back(u); });
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all, ExpectedLiveCoPosted(problem, tid,
                                        std::vector<char>(tables, 0),
                                        nullptr))
        << "tid " << tid;
    for (int sample = 0; sample < 6; ++sample) {
      std::vector<char> used(tables, 0);
      std::vector<char> live(cols, 0);
      for (auto& u : used) u = rng->Bernoulli(0.3);
      used[problem.table_id(tid)] = 1;  // the sweep's precondition
      // Sample 0 marks every column, as the seed of a search does.
      for (auto& l : live) l = sample == 0 || rng->Bernoulli(0.5);
      std::vector<uint32_t> got;
      problem.ForEachLiveCoPosted(tid, used.data(), live.data(),
                                  [&](uint32_t u) { got.push_back(u); });
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, ExpectedLiveCoPosted(problem, tid, used, &live))
          << "tid " << tid << " sample " << sample;
    }
  }
}

/// Every posting's runs are maximal same-table runs covering its TIDs in
/// order, its column carries one shared code across the list, and the run
/// count is what index_stats reports. Returns the largest run count of any
/// posting.
size_t ExpectRunsWellFormed(const FdProblem& problem) {
  size_t total_runs = 0;
  size_t max_runs = 0;
  for (uint32_t p = 0; p < problem.index_stats().posting_lists; ++p) {
    const auto [tid_begin, tid_end] = problem.PostingTids(p);
    const auto [run_begin, run_end] = problem.PostingRuns(p);
    EXPECT_GE(tid_end - tid_begin, 2);
    const uint32_t col = problem.PostingColumn(p);
    EXPECT_LT(col, problem.num_columns());
    const uint32_t code = problem.CodeRow(*tid_begin)[col];
    EXPECT_NE(code, FdProblem::kNullCode);
    const uint32_t* tid = tid_begin;
    for (const PostingRun* run = run_begin; run != run_end; ++run) {
      EXPECT_GT(run->length, 0u);
      if (run != run_begin) {
        EXPECT_NE(run->table, (run - 1)->table) << p;  // maximal runs
      }
      for (uint32_t k = 0; k < run->length; ++k, ++tid) {
        EXPECT_EQ(problem.table_id(*tid), run->table) << p;
        EXPECT_EQ(problem.CodeRow(*tid)[col], code) << p;
      }
    }
    EXPECT_EQ(tid, tid_end) << p;
    total_runs += static_cast<size_t>(run_end - run_begin);
    max_runs = std::max(max_runs, static_cast<size_t>(run_end - run_begin));
  }
  EXPECT_EQ(total_runs, problem.index_stats().posting_runs);
  return max_runs;
}

const IndexShape kRunShapes[] = {
    {2, 4, 3, 2, 101}, {3, 6, 3, 3, 202}, {4, 8, 4, 2, 303},
    {3, 10, 5, 4, 404}, {5, 5, 4, 6, 505}, {2, 12, 2, 3, 606}};

TEST(PostingRunsTest, InternedLiveSweepMatchesDefinition) {
  for (const IndexShape& shape : kRunShapes) {
    Rng rng(shape.seed ^ 0x5eed);
    for (int trial = 0; trial < 5; ++trial) {
      const std::vector<Table> tables = RandomTables(shape, &rng);
      auto aligned = AlignByName(tables);
      ASSERT_TRUE(aligned.ok());
      SessionDict dict;
      auto problem =
          FdProblem::BuildInterned(BorrowTables(tables), *aligned, &dict);
      ASSERT_TRUE(problem.ok()) << problem.status().ToString();
      problem->BuildIndex();
      // Table-by-table TIDs: at most one run per table in any list.
      EXPECT_LE(ExpectRunsWellFormed(*problem), shape.num_tables);
      ExpectLiveSweepContract(*problem, &rng);
    }
  }
}

TEST(PostingRunsTest, InterleavedTablesLiveSweepMatchesDefinition) {
  size_t max_runs = 0;
  size_t max_tables = 0;
  for (const IndexShape& shape : kRunShapes) {
    Rng rng(shape.seed ^ 0x1ea7);
    for (int trial = 0; trial < 5; ++trial) {
      FdProblem problem = InterleavedProblem(shape, &rng);
      problem.BuildIndex();
      max_runs = std::max(max_runs, ExpectRunsWellFormed(problem));
      max_tables = std::max<size_t>(max_tables, problem.num_tables());
      ExpectLiveSweepContract(problem, &rng);
    }
  }
  // Interleaving did split some table into several runs of one list.
  EXPECT_GT(max_runs, max_tables);
}

TEST(PostingRunsTest, SerialAndPooledBuildsAgree) {
  ThreadPool pool(8);
  // 30k tuples × 6 columns with tables interleaved, so lists split into
  // several runs per table. Both builds must equal the reference postings
  // list for list.
  constexpr uint32_t kTuples = 30000;
  constexpr size_t kCols = 6;
  std::vector<std::string> names;
  for (size_t c = 0; c < kCols; ++c) names.push_back("c" + std::to_string(c));
  FdProblem serial(kCols, names);
  Rng rng(4242);
  for (uint32_t i = 0; i < kTuples; ++i) {
    std::vector<Value> vals(kCols);
    for (size_t c = 0; c < kCols; ++c) {
      if (rng.Bernoulli(0.3)) continue;  // null
      vals[c] = Value::Int(static_cast<int64_t>(rng.Uniform(5000)));
    }
    ASSERT_TRUE(
        serial.AddTuple(static_cast<uint32_t>(rng.Uniform(5)), std::move(vals))
            .ok());
  }
  FdProblem pooled = serial;
  serial.BuildIndex();
  pooled.BuildIndex(&pool);
  EXPECT_EQ(serial.index_stats().posting_runs,
            pooled.index_stats().posting_runs);
  EXPECT_GT(serial.index_stats().posting_runs,
            serial.index_stats().posting_lists);
  ExpectPostingsMatchReference(serial);
  ExpectPostingsMatchReference(pooled);

  // The interned path: the arrays agree index for index, runs included.
  const std::vector<Table> tables = RandomTables({4, 40, 4, 5, 0}, &rng);
  auto aligned = AlignByName(tables);
  ASSERT_TRUE(aligned.ok());
  SessionDict dict;
  auto a = FdProblem::BuildInterned(BorrowTables(tables), *aligned, &dict);
  auto b = FdProblem::BuildInterned(BorrowTables(tables), *aligned, &dict);
  ASSERT_TRUE(a.ok() && b.ok());
  a->BuildIndex();
  b->BuildIndex(&pool);
  ASSERT_GT(a->index_stats().posting_lists, 0u);
  ExpectPostingsMatchReference(*a);
  ExpectPostingsMatchReference(*b);
  ASSERT_EQ(a->index_stats().posting_lists, b->index_stats().posting_lists);
  for (uint32_t p = 0; p < a->index_stats().posting_lists; ++p) {
    const auto [ra, ra_end] = a->PostingRuns(p);
    const auto [rb, rb_end] = b->PostingRuns(p);
    ASSERT_EQ(ra_end - ra, rb_end - rb) << p;
    for (ptrdiff_t r = 0; r < ra_end - ra; ++r) {
      EXPECT_EQ(ra[r].table, rb[r].table) << p;
      EXPECT_EQ(ra[r].length, rb[r].length) << p;
    }
  }
}

// ---------------------------------------------------------- search-tree pins

/// The bench_fd_skew shape at 1,600 tuples: four tables whose every tuple
/// shares the value "hub", a key column with seeded typos that splits
/// consistency, and a per-table payload column. One join component.
std::vector<Table> SkewHubLake() {
  Rng rng(20260730);
  CorruptionConfig config;
  config.typo = 1.0;
  std::vector<Table> tables;
  for (size_t l = 0; l < 4; ++l) {
    Table t("t" + std::to_string(l),
            Schema::FromNames({"key", "hub", "p" + std::to_string(l)}));
    for (size_t k = 0; k < 200; ++k) {
      for (size_t r = 0; r < 2; ++r) {
        std::string key = StrFormat("key_%05zu", k);
        if (rng.Bernoulli(0.15)) key = Corrupt(&rng, key, config);
        EXPECT_TRUE(t.AppendRow({Value::String(std::move(key)),
                                 Value::String("hub"),
                                 Value::String(StrFormat("v%zu_%zu_%zu", l,
                                                         k, r))})
                        .ok());
      }
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

/// Order-sensitive fingerprint of an FD result: every tuple's values (type
/// and text) and TIDs, in output order.
uint64_t ResultFingerprint(const std::vector<FdResultTuple>& tuples) {
  uint64_t h = Fnv1a64("fd-result");
  for (const FdResultTuple& t : tuples) {
    for (const Value& v : t.values) {
      h = HashCombine(h, static_cast<uint64_t>(v.type()));
      h = HashCombine(h, Fnv1a64(v.ToString()));
    }
    for (uint32_t tid : t.tids) h = HashCombine(h, tid);
    h = HashCombine(h, t.tids.size());
  }
  return h;
}

struct PinnedRun {
  uint64_t search_nodes;
  size_t tuples;
  uint64_t fingerprint;
};

PinnedRun RunPinned(const std::vector<Table>& tables, bool interned,
                    ThreadPool* pool) {
  auto aligned = AlignByName(tables);
  EXPECT_TRUE(aligned.ok());
  SessionDict dict;
  auto problem = interned ? FdProblem::BuildInterned(BorrowTables(tables),
                                                     *aligned, &dict)
                          : FdProblem::Build(tables, *aligned);
  EXPECT_TRUE(problem.ok());
  auto result = FullDisjunction(FdOptions(), pool).Run(&problem.value());
  EXPECT_TRUE(result.ok());
  return {result->stats.search_nodes, result->tuples.size(),
          ResultFingerprint(result->tuples)};
}

// The search tree and the output of two seeded instances, pinned to the
// values of the full-sweep enumerator (before postings were filtered by
// table run and flipped column). A candidate filter may only drop
// candidates that cannot extend the set: the branch-and-exclude tree, and
// so search_nodes and the output bytes, must not move.
TEST(SearchTreePinTest, SkewHubShapeAtEveryPoolSize) {
  const std::vector<Table> tables = SkewHubLake();
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "no pool" : "4-thread pool");
    const PinnedRun run = RunPinned(tables, /*interned=*/false, p);
    EXPECT_EQ(run.search_nodes, 11483u);
    EXPECT_EQ(run.tuples, 2138u);
    EXPECT_EQ(run.fingerprint, 0x8224d98e671bcb6fULL);
  }
}

TEST(SearchTreePinTest, Imdb2000AtEveryPoolSize) {
  ImdbOptions gen;
  gen.target_tuples = 2000;
  const std::vector<Table> tables = GenerateImdb(gen).tables;
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "no pool" : "4-thread pool");
    const PinnedRun run = RunPinned(tables, /*interned=*/true, p);
    EXPECT_EQ(run.search_nodes, 23982u);
    EXPECT_EQ(run.tuples, 1597u);
    EXPECT_EQ(run.fingerprint, 0x26f92da379a2d2f6ULL);
  }
}

// ------------------------------------------------------------ edge contracts

// An empty table and an all-null table post nothing: the index has zero
// posting lists and zero runs, every tuple is its own component, and FD
// still answers — checked against the brute-force oracle. Runs under the
// ASan/UBSan suites like everything else here.
TEST(FdEdgeContractTest, EmptyAndAllNullTablesBuildAndRun) {
  Table empty("empty", Schema::FromNames({"a", "b"}));
  Table nulls("nulls", Schema::FromNames({"a", "b"}));
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(nulls.AppendRow({Value::Null(), Value::Null()}).ok());
  }
  const std::vector<std::vector<const Table*>> cases = {
      {&empty}, {&nulls}, {&empty, &nulls}, {&nulls, &empty}};
  ThreadPool pool(2);
  for (const auto& tables : cases) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto aligned = AlignByName(tables);
      ASSERT_TRUE(aligned.ok());
      SessionDict dict;
      auto problem = FdProblem::BuildInterned(tables, *aligned, &dict);
      ASSERT_TRUE(problem.ok()) << problem.status().ToString();
      const size_t rows = tables.size() == 1 && tables[0] == &empty ? 0 : 3;
      ASSERT_EQ(problem->num_tuples(), rows);
      FdStats stats;
      auto codes = FullDisjunction(FdOptions(), p).RunCodes(&*problem,
                                                            &stats);
      ASSERT_TRUE(codes.ok()) << codes.status().ToString();
      EXPECT_EQ(problem->index_stats().posting_lists, 0u);
      EXPECT_EQ(problem->index_stats().posting_entries, 0u);
      EXPECT_EQ(problem->index_stats().posting_runs, 0u);
      EXPECT_EQ(problem->Components().size(), rows);
      EXPECT_EQ(stats.num_components, rows);
      // The oracle serves both builders, and they agree.
      auto padded = FdProblem::Build(tables, *aligned);
      ASSERT_TRUE(padded.ok());
      auto oracle = NaiveFdOracle(*problem);
      ASSERT_TRUE(oracle.ok());
      auto padded_oracle = NaiveFdOracle(*padded);
      ASSERT_TRUE(padded_oracle.ok());
      EXPECT_EQ(*padded_oracle, *oracle);
      ASSERT_EQ(codes->size(), oracle->size());
      for (size_t i = 0; i < codes->size(); ++i) {
        EXPECT_EQ(DecodeCodeTuple((*codes)[i], problem->dict()),
                  (*oracle)[i]);
      }
    }
  }
}

TEST(FdEdgeContractTest, OracleServesBothBuildersAndMatchesRunCodes) {
  // Random tiny lakes over overlapping column subsets, some tables empty,
  // some all-null: oracle(Build) == oracle(BuildInterned) == RunCodes,
  // poolless and pooled.
  Rng rng(0xac1e);
  ThreadPool pool(2);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Table> tables;
    const uint64_t num_tables = 1 + rng.Uniform(4);
    for (uint64_t l = 0; l < num_tables; ++l) {
      std::vector<std::string> names;
      for (const char* name : {"a", "b", "c"}) {
        if (rng.Bernoulli(0.6)) names.push_back(name);
      }
      if (names.empty()) names.push_back("a");
      Table t("t" + std::to_string(l), Schema::FromNames(names));
      const uint64_t kind = rng.Uniform(5);  // 0: empty, 1: all-null
      const uint64_t rows = kind == 0 ? 0 : 1 + rng.Uniform(4);
      for (uint64_t r = 0; r < rows; ++r) {
        std::vector<Value> vals(names.size());
        for (Value& v : vals) {
          if (kind == 1 || rng.Bernoulli(0.3)) continue;
          v = Value::String(
              std::string(1, static_cast<char>('x' + rng.Uniform(3))));
        }
        ASSERT_TRUE(t.AppendRow(std::move(vals)).ok());
      }
      tables.push_back(std::move(t));
    }
    SCOPED_TRACE(trial);
    auto aligned = AlignByName(tables);
    ASSERT_TRUE(aligned.ok());
    auto padded = FdProblem::Build(tables, *aligned);
    ASSERT_TRUE(padded.ok());
    SessionDict dict;
    auto interned =
        FdProblem::BuildInterned(BorrowTables(tables), *aligned, &dict);
    ASSERT_TRUE(interned.ok());
    auto from_build = NaiveFdOracle(*padded);
    auto from_interned = NaiveFdOracle(*interned);
    ASSERT_TRUE(from_build.ok()) << from_build.status().ToString();
    ASSERT_TRUE(from_interned.ok()) << from_interned.status().ToString();
    ASSERT_EQ(*from_build, *from_interned);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      FdProblem problem = *interned;
      FdStats stats;
      auto codes = FullDisjunction(FdOptions(), p).RunCodes(&problem, &stats);
      ASSERT_TRUE(codes.ok()) << codes.status().ToString();
      EXPECT_EQ(DecodeAll(*codes, problem.dict()), *from_interned);
    }
  }
}

}  // namespace
}  // namespace lakefuzz
