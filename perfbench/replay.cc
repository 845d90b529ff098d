#include "replay.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "core/fuzzy_fd.h"
#include "embedding/model_zoo.h"
#include "fd/full_disjunction.h"
#include "fd/parallel.h"
#include "fd/problem.h"
#include "match/schema_matcher.h"
#include "table/csv.h"

namespace perfbench {

using namespace lakefuzz;

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x;
  h *= kFnvPrime;
  return h ^ (h >> 29);
}

bool SameCells(const Table& a, const Table& b) {
  if (a.NumRows() != b.NumRows() || a.NumColumns() != b.NumColumns()) {
    return false;
  }
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    for (size_t r = 0; r < a.NumRows(); ++r) {
      if (!(a.At(r, c) == b.At(r, c))) return false;
    }
  }
  return true;
}

}  // namespace

void Fingerprint::AddValues(const std::vector<Value>& row) {
  for (const Value& v : row) values = Mix(values, v.Hash());
  values = Mix(values, 0x9e3779b97f4a7c15ull);
  ++rows;
}

void Fingerprint::AddTids(const std::vector<uint32_t>& row_tids) {
  for (uint32_t t : row_tids) tids = Mix(tids, t);
  tids = Mix(tids, 0x9e3779b97f4a7c15ull);
}

ReplaySession::ReplaySession(size_t pool_threads)
    : model_(MakeModel(ModelKind::kMistral)),
      cache_(std::make_shared<EmbeddingCache>(model_)),
      dict_(std::make_unique<SessionDict>()) {
  if (pool_threads > 1) pool_ = std::make_unique<ThreadPool>(pool_threads);
  index_ = std::make_unique<DiscoveryIndex>(DiscoveryOptions(), dict_.get(),
                                            pool_.get());
}

void ReplaySession::Register(const std::string& name,
                             std::shared_ptr<const Table> table,
                             TracedRequest* log, int parent,
                             const char* span_name) {
  tables_[name] = table;
  schema_cache_.clear();
  dict_->PinTable(table);
  BenchSpan span(log, span_name, parent);
  index_->AddTable(name, std::move(table), ++version_);
}

void ReplaySession::Unregister(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return;
  dict_->DropTable(it->second.get());
  index_->RemoveTable(name, ++version_);
  tables_.erase(it);
  schema_cache_.clear();
}

Result<std::shared_ptr<const Table>> ReplaySession::ReadCsv(
    const std::string& path, const std::string& name, TracedRequest* log,
    int parent) {
  BenchSpan span(log, "table.csv_parse", parent);
  Result<Table> table = ReadCsvFile(path);
  span.End();
  if (!table.ok()) return table.status();
  std::error_code ec;
  log->Add("table.csv_bytes",
           static_cast<double>(std::filesystem::file_size(path, ec)));
  table->set_name(name);
  return std::shared_ptr<const Table>(
      std::make_shared<Table>(std::move(table).value()));
}

Result<std::vector<DiscoveryCandidate>> ReplaySession::TopK(
    const std::string& name, size_t k, TracedRequest* log, int parent) {
  BenchSpan span(log, "discovery.query", parent);
  return index_->TopKByName(name, k);
}

Status ReplaySession::Integrate(const std::vector<std::string>& names,
                                bool holistic, TracedRequest* log,
                                int parent, Fingerprint* out) {
  TableList tables;
  std::string key = holistic ? "h" : "n";
  for (const std::string& name : names) {
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("replay: table '" + name + "' not registered");
    }
    tables.push_back(it->second.get());
    key += '\x1f';
    key += name;
  }

  auto cached = schema_cache_.find(key);
  if (cached == schema_cache_.end()) {
    BenchSpan span(log, "match.align", parent);
    Result<AlignedSchema> aligned = holistic
                                        ? HolisticSchemaMatcher(model_).Align(
                                              tables)
                                        : AlignByName(tables);
    span.End();
    if (!aligned.ok()) return aligned.status();
    cached = schema_cache_.emplace(key, std::move(aligned).value()).first;
  } else {
    log->Add("replay.schema_cache_hits", 1);
  }
  const AlignedSchema& aligned = cached->second;
  log->Add("match.universal_columns",
           static_cast<double>(aligned.NumUniversal()));

  // The engine's effective request options for a pooled session.
  FuzzyFdOptions eff;
  eff.matcher.model = model_;
  eff.matcher.shared_cache = cache_;
  eff.session_dict = dict_.get();
  if (pool_ != nullptr) {
    eff.pool = pool_.get();
    eff.matcher.pool = pool_.get();
    eff.matcher.num_threads = pool_->num_threads();
    eff.parallel = true;
    eff.num_threads = pool_->num_threads();
  }

  const PoolStats pool_before =
      pool_ != nullptr ? pool_->stats() : PoolStats{};
  const size_t hits_before = cache_->hits();
  const size_t misses_before = cache_->misses();

  // core.rewrite_tables, split into match / rewrite at the rewrite stage's
  // first progress event; what follows the last event is the copy-out of
  // the result tables, left as the parent's self time.
  BenchSpan core(log, "core.rewrite_tables", parent);
  int match_span = log->Open("core.match", core.id());
  int rewrite_span = -1;
  eff.progress = [&](const ProgressEvent& e) {
    if (e.stage != Stage::kRewrite) return;
    if (e.done == 0) {
      log->Close(match_span);
      rewrite_span = log->Open("core.rewrite", core.id());
    } else if (e.done == e.total) {
      log->Close(rewrite_span);
    }
  };
  FuzzyFdReport report;
  Result<std::vector<Table>> rewritten =
      FuzzyFullDisjunction(eff).RewriteTables(tables, aligned, &report);
  log->Close(match_span);
  log->Close(rewrite_span);
  core.End();
  if (!rewritten.ok()) return rewritten.status();
  log->Add("core.cost_evaluations",
           static_cast<double>(report.match_stats.cost_evaluations));
  log->Add("core.pruned_evaluations",
           static_cast<double>(report.match_stats.pruned_evaluations));
  log->Add("core.dense_solves",
           static_cast<double>(report.match_stats.dense_solves));
  log->Add("core.sparse_solves",
           static_cast<double>(report.match_stats.sparse_solves));
  log->Add("core.values_rewritten",
           static_cast<double>(report.values_rewritten));
  log->Add("embedding.hits", static_cast<double>(cache_->hits() - hits_before));
  log->Add("embedding.misses",
           static_cast<double>(cache_->misses() - misses_before));

  // Like the engine, keep tables the rewrite left untouched as the pinned
  // snapshots, so their memoized column codes serve the FD build.
  TableList fd_tables;
  for (size_t l = 0; l < tables.size(); ++l) {
    const bool untouched = report.values_rewritten == 0 ||
                           SameCells(*tables[l], (*rewritten)[l]);
    fd_tables.push_back(untouched ? tables[l] : &(*rewritten)[l]);
  }

  BenchSpan build(log, "fd.build", parent);
  Result<FdProblem> built =
      FdProblem::BuildInterned(fd_tables, aligned, dict_.get());
  build.End();
  if (!built.ok()) return built.status();
  FdProblem problem = std::move(built).value();
  {
    BenchSpan index(log, "fd.index", parent);
    problem.BuildIndex(pool_.get());
  }

  BenchSpan run(log, "fd.run", parent);
  int phase = -1;
  ProgressFn fd_progress = [&](const ProgressEvent& e) {
    if (e.stage != Stage::kFdEnumerate && e.stage != Stage::kFdSubsume) {
      return;
    }
    if (e.done == 0) {
      phase = log->Open(e.stage == Stage::kFdEnumerate ? "fd.enumerate"
                                                       : "fd.subsume",
                        run.id());
    } else {
      log->Close(phase);
    }
  };
  FdStats stats;
  Result<std::vector<FdCodeTuple>> codes = Status::Internal("unreachable");
  if (pool_ != nullptr) {
    ParallelFdOptions popts;
    popts.num_threads = pool_->num_threads();
    popts.pool = pool_.get();
    codes = ParallelFullDisjunction(popts).RunCodes(&problem, &stats,
                                                    RequestContext(),
                                                    fd_progress);
  } else {
    codes = FullDisjunction().RunCodes(&problem, &stats, RequestContext(),
                                       fd_progress);
  }
  run.End();
  if (!codes.ok()) return codes.status();
  if (pool_ != nullptr) {
    const PoolStats delta = pool_->stats() - pool_before;
    log->Add("pool.busy_ns", static_cast<double>(delta.busy_ns));
    log->Add("pool.wait_ns", static_cast<double>(delta.queue_wait_ns));
    log->Add("pool.workers", static_cast<double>(pool_->num_threads()));
  }
  log->Add("fd.search_nodes", static_cast<double>(stats.search_nodes));
  log->Add("fd.intra_tasks", static_cast<double>(stats.intra_tasks));
  log->Add("fd.results", static_cast<double>(stats.results));
  log->Add("fd.results_before_subsumption",
           static_cast<double>(stats.results_before_subsumption));
  log->Add("fd.input_tuples", static_cast<double>(stats.num_input_tuples));
  log->Add("fd.largest_component",
           static_cast<double>(stats.largest_component));

  for (const FdCodeTuple& ct : *codes) {
    out->AddTuple(DecodeCodeTuple(ct, problem.dict()));
  }
  return Status::OK();
}

}  // namespace perfbench
