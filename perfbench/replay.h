// Layer-by-layer replay of LakeEngine requests for the traced run.
//
// A ReplaySession owns the same session resources a LakeEngine owns (model,
// embedding cache, worker pool, session dictionary, discovery index) and
// answers a request by calling each layer's public entry point in the order
// the engine does, with a benchmark span around every call:
//
//   discovery.sketch  DiscoveryIndex::AddTable (sketch + LSH insert)
//   discovery.query   DiscoveryIndex::TopKByName
//   table.csv_parse   ReadCsvFile
//   match.align       HolisticSchemaMatcher::Align / AlignByName
//   core.rewrite_tables  FuzzyFullDisjunction::RewriteTables, split by its
//                     progress events into core.match (value matching) and
//                     core.rewrite (rewriting matched values)
//   fd.build          FdProblem::BuildInterned
//   fd.index          FdProblem::BuildIndex
//   fd.run            ParallelFullDisjunction::RunCodes, split by its
//                     progress events into fd.enumerate and fd.subsume
//
// The replay's output is fingerprinted exactly like the engine's response,
// so the driver can check that the two agree.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "discovery/discovery.h"
#include "embedding/embedding_cache.h"
#include "fd/aligned_schema.h"
#include "fd/fd_tuple.h"
#include "fd/session_dict.h"
#include "span_log.h"
#include "table/table.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace perfbench {

/// Order-sensitive digest of an integration answer. `values` covers the
/// output cells row by row; `tids` covers each row's provenance set.
struct Fingerprint {
  uint64_t values = 0xcbf29ce484222325ull;
  uint64_t tids = 0xcbf29ce484222325ull;
  size_t rows = 0;

  void AddValues(const std::vector<lakefuzz::Value>& row);
  void AddTids(const std::vector<uint32_t>& row_tids);
  void AddTuple(const lakefuzz::FdResultTuple& tuple) {
    AddValues(tuple.values);
    AddTids(tuple.tids);
  }
  bool operator==(const Fingerprint& other) const {
    return values == other.values && tids == other.tids &&
           rows == other.rows;
  }
  bool operator!=(const Fingerprint& other) const { return !(*this == other); }
};

class ReplaySession {
 public:
  /// `pool_threads` > 1 gives the session a worker pool of that size (the
  /// engine's rule: one thread means serial, no pool).
  explicit ReplaySession(size_t pool_threads);

  /// Mirrors LakeEngine::RegisterTable: pins the snapshot in the session
  /// dictionary and sketches it into the discovery index under a span
  /// named `span_name` (a child of `parent` in `log`).
  void Register(const std::string& name,
                std::shared_ptr<const lakefuzz::Table> table,
                TracedRequest* log, int parent, const char* span_name);
  /// Mirrors LakeEngine::Unregister (not traced: it is bookkeeping).
  void Unregister(const std::string& name);

  /// ReadCsvFile under a table.csv_parse span; records csv bytes.
  lakefuzz::Result<std::shared_ptr<const lakefuzz::Table>> ReadCsv(
      const std::string& path, const std::string& name, TracedRequest* log,
      int parent);

  /// DiscoveryIndex::TopKByName under a discovery.query span.
  lakefuzz::Result<std::vector<lakefuzz::DiscoveryCandidate>> TopK(
      const std::string& name, size_t k, TracedRequest* log, int parent);

  /// The align → match → rewrite → FD pipeline over registered tables,
  /// with `fuzzy` on and alignment by content (`holistic`) or by name.
  /// Alignments are cached per name list until the next Register /
  /// Unregister, like the engine's schema cache. Fills `out` with the
  /// answer's fingerprint.
  lakefuzz::Status Integrate(const std::vector<std::string>& names,
                             bool holistic, TracedRequest* log, int parent,
                             Fingerprint* out);

 private:
  std::shared_ptr<const lakefuzz::EmbeddingModel> model_;
  std::shared_ptr<lakefuzz::EmbeddingCache> cache_;
  std::unique_ptr<lakefuzz::ThreadPool> pool_;
  std::unique_ptr<lakefuzz::SessionDict> dict_;
  std::unique_ptr<lakefuzz::DiscoveryIndex> index_;
  std::map<std::string, std::shared_ptr<const lakefuzz::Table>> tables_;
  /// Mutation counter handed to the discovery index as its version.
  uint64_t version_ = 0;
  std::map<std::string, lakefuzz::AlignedSchema> schema_cache_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
