// perfbench_driver: runs one benchmark workload against a LakeEngine and
// writes every raw measurement to a JSON file; perfbench/run.py turns the
// raw file into the reported metrics.
//
//   perfbench_driver --workload imdb_join|lake_fuzzy_union|lake_restart
//                    --seed N --seconds S --trace 0|1
//                    --workdir DIR --raw PATH
//
// One client drives the engine in a closed loop; the engine pool gets the
// remaining granted cores, so client plus pool never exceed them. Inputs
// come only from --seed. Every response is checked: imdb_join and
// lake_fuzzy_union answers are fingerprinted and compared with those of a
// single-thread reference engine in a child process (so its memory stays
// out of the measured peak RSS), lake_restart checks that a reopened
// catalog re-sketches nothing, loads every table and ranks exactly like
// the writer. With --trace 1 every cycle also replays the request layer by
// layer (replay.h) and records benchmark-owned spans.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "datagen/corruption.h"
#include "datagen/imdb.h"
#include "datagen/lake.h"
#include "json_writer.h"
#include "obs/trace.h"
#include "replay.h"
#include "span_log.h"
#include "table/csv.h"
#include "util/rng.h"
#include "util/rss.h"

namespace perfbench {
namespace {

using namespace lakefuzz;
namespace fs = std::filesystem;

/// Below this many timed cycles the tail percentile (10 samples beyond it)
/// is meaningless, so the loop runs on past --seconds until it has them.
/// Peak RSS is read when this many cycles are done: caches keep growing
/// with every unseen string, so a later reading would depend on how many
/// cycles the run had time for.
constexpr size_t kMinCycles = 20;
/// Engine set-ups per untraced run (setup_s reports their median): 2-6 s
/// of set-up work per workload, since CPU speed on shared hosts changes
/// on the scale of seconds.
constexpr int kImdbSetupReps = 15;
constexpr int kFuzzySetupReps = 5;
constexpr int kRestartSetupReps = 11;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir;
  std::string raw;
};

/// The reference child process, stopped by Die (-1 when none runs).
pid_t g_reference_pid = -1;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  if (g_reference_pid > 0) {
    kill(g_reference_pid, SIGKILL);
    waitpid(g_reference_pid, nullptr, 0);
  }
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--raw") {
      args->raw = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() &&
         !args->workdir.empty() && !args->raw.empty();
}

/// Independent, reproducible sub-seed for one use of the run seed.
uint64_t SeedFor(uint64_t seed, const char* tag, uint64_t i = 0) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char* p = tag; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
  }
  uint64_t z = seed ^ h ^ (i * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double MsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

std::unique_ptr<LakeEngine> MakeEngine(size_t threads) {
  auto engine = LakeEngine::Create(EngineOptions().SetNumThreads(threads));
  if (!engine.ok()) Die("engine: " + engine.status().ToString());
  return std::move(engine).value();
}

void CheckOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

/// One closed-loop cycle's untraced timings (0 where the workload has no
/// such step).
struct Cycle {
  double request_ms = 0.0;
  double cycle_ms = 0.0;
  double ingest_ms = 0.0;
  double checkpoint_ms = 0.0;
};

/// Everything a run measured, written verbatim for run.py.
struct Raw {
  std::string workload;
  uint64_t seed = 0;
  int trace = 0;
  HardwareInfo hw;
  size_t pool_threads = 1;
  std::map<std::string, double> inputs;
  std::vector<double> setup_s;
  std::vector<Cycle> cycles;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;
  double loop_s = 0.0;
  /// Peak RSS after set-up and the first kMinCycles cycles.
  double peak_rss_mb = 0.0;
  /// Run-level totals: quality counts, catalog sizes, cache traffic.
  std::map<std::string, double> totals;
  std::vector<TracedRequest> traced;
  /// Set-up phase of the traced run (discovery.build spans).
  TracedRequest setup_trace;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
    std::fprintf(stderr, "perfbench_driver: FAILED %s\n", what.c_str());
  }
  void Mismatch(const std::string& what) {
    ++mismatches;
    Fail("mismatch: " + what);
  }
};

double PeakRssMb() {
  return static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
}

/// Runs `fn(i)` for cycles i = 0, 1, ... until --seconds have passed and at
/// least kMinCycles ran (bounded by a hard cap for a pathologically slow
/// program).
template <typename Fn>
void TimedLoop(const Args& args, Raw* raw, Fn fn) {
  const uint64_t start = NowNs();
  const double cap_s = args.seconds * 3.0 + 30.0;
  for (size_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if ((i >= kMinCycles && elapsed >= args.seconds) || elapsed >= cap_s) {
      break;
    }
    fn(i);
    if (i + 1 == kMinCycles) raw->peak_rss_mb = PeakRssMb();
  }
  raw->loop_s = static_cast<double>(NowNs() - start) / 1e9;
  if (raw->peak_rss_mb == 0.0) raw->peak_rss_mb = PeakRssMb();
}

Fingerprint TableFingerprint(const Table& table) {
  Fingerprint fp;
  for (size_t r = 0; r < table.NumRows(); ++r) fp.AddValues(table.Row(r));
  return fp;
}

/// Streaming consumer that only keeps a copy of every batch (the engine
/// reuses the batch vector), so that fingerprinting and scoring happen
/// after the request's timer has stopped.
class KeepSink : public RowSink {
 public:
  Status Begin(const std::vector<std::string>& names) override {
    names_ = names;
    return Status::OK();
  }
  Status OnBatch(const std::vector<FdResultTuple>& batch) override {
    rows_.insert(rows_.end(), batch.begin(), batch.end());
    return Status::OK();
  }

  const std::vector<std::string>& names() const { return names_; }

  Fingerprint fingerprint() const {
    Fingerprint fp;
    for (const FdResultTuple& t : rows_) fp.AddTuple(t);
    return fp;
  }

  /// For each tuple id below `n`, the first output row that carries it,
  /// or null when none does.
  std::vector<const std::vector<Value>*> RowsOfTids(size_t n) const {
    std::vector<const std::vector<Value>*> out(n, nullptr);
    for (const FdResultTuple& t : rows_) {
      for (uint32_t tid : t.tids) {
        if (tid < n && out[tid] == nullptr) out[tid] = &t.values;
      }
    }
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::vector<FdResultTuple> rows_;
};

/// A reference answer: the fingerprint and, for discovery requests, the
/// names of the integrated partners.
struct Answer {
  Fingerprint fp;
  std::vector<std::string> discovered;
};

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t put = write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<size_t>(put);
  }
  return true;
}

/// Reference answers from a single-thread engine that lives in a forked
/// child process, so that its memory stays out of the measured process's
/// peak RSS. Fork before the parent starts any thread. The child runs
/// `init` (building its engine), then answers each request number `i`
/// with `answer(i)` until the parent closes the pipe.
class ReferenceProcess {
 public:
  using AnswerFn = std::function<Result<Answer>(uint64_t)>;

  ReferenceProcess(const std::function<void()>& init, const AnswerFn& answer) {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) Die("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) Die("fork failed");
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      close(to_child[1]);
      close(from_child[0]);
      init();
      uint64_t i = 0;
      while (ReadAll(to_child[0], &i, sizeof i)) {
        const std::string reply = Encode(answer(i));
        const uint64_t n = reply.size();
        if (!WriteAll(from_child[1], &n, sizeof n) ||
            !WriteAll(from_child[1], reply.data(), n)) {
          break;
        }
      }
      _exit(0);
    }
    // A child that died must end the run through Die, not by SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    close(to_child[0]);
    close(from_child[1]);
    to_child_ = to_child[1];
    from_child_ = from_child[0];
    g_reference_pid = pid;
  }

  ~ReferenceProcess() {
    close(to_child_);
    close(from_child_);
    waitpid(g_reference_pid, nullptr, 0);
    g_reference_pid = -1;
  }

  /// The reference answer to request `i`, or the error the reference
  /// engine returned for it.
  Result<Answer> Ask(uint64_t i) {
    uint64_t n = 0;
    std::string reply;
    if (WriteAll(to_child_, &i, sizeof i) &&
        ReadAll(from_child_, &n, sizeof n)) {
      reply.resize(n);
      if (ReadAll(from_child_, reply.data(), n)) return Decode(reply);
    }
    Die("reference process ended");
  }

 private:
  /// One line "ok <values> <tids> <rows>" or "error <message>", then one
  /// discovered name per line.
  static std::string Encode(const Result<Answer>& a) {
    if (!a.ok()) return "error " + a.status().ToString();
    std::ostringstream out;
    out << "ok " << a->fp.values << ' ' << a->fp.tids << ' ' << a->fp.rows;
    for (const std::string& name : a->discovered) out << '\n' << name;
    return out.str();
  }

  static Result<Answer> Decode(const std::string& reply) {
    std::istringstream in(reply);
    std::string word;
    in >> word;
    if (word != "ok") return Status::Internal("reference: " + reply);
    Answer a;
    in >> a.fp.values >> a.fp.tids >> a.fp.rows;
    std::string line;
    std::getline(in, line);
    while (std::getline(in, line)) a.discovered.push_back(line);
    return a;
  }

  int to_child_ = -1;
  int from_child_ = -1;
};

void AddTableSizes(const std::vector<std::shared_ptr<const Table>>& tables,
                   Raw* raw) {
  double tuples = 0, cells = 0, csv_bytes = 0;
  for (const auto& t : tables) {
    tuples += static_cast<double>(t->NumRows());
    cells += static_cast<double>(t->NumRows() * t->NumColumns());
    csv_bytes += static_cast<double>(WriteCsv(*t).size());
  }
  raw->inputs["tables"] += static_cast<double>(tables.size());
  raw->inputs["tuples"] += tuples;
  raw->inputs["cells"] += cells;
  raw->inputs["csv_bytes"] += csv_bytes;
}

std::vector<std::string> Names(const std::vector<DiscoveryCandidate>& c) {
  std::vector<std::string> out;
  for (const auto& x : c) out.push_back(x.name);
  return out;
}

bool SameRanking(const std::vector<DiscoveryCandidate>& a,
                 const std::vector<DiscoveryCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].score != b[i].score) return false;
  }
  return true;
}

/// Copy of `base` with each non-null cell typo'd with probability `p`;
/// `planted` (when given) receives (row, col) of every changed cell.
Table Typo(const Table& base, double p, Rng* rng,
           std::vector<std::pair<size_t, size_t>>* planted) {
  Table out = base;
  for (size_t r = 0; r < out.NumRows(); ++r) {
    for (size_t c = 0; c < out.NumColumns(); ++c) {
      const Value& v = base.At(r, c);
      if (v.is_null() || !rng->Bernoulli(p)) continue;
      const std::string clean = v.ToString();
      std::string noisy = ApplyTypo(rng, clean);
      if (noisy == clean) continue;
      out.Set(r, c, Value::String(std::move(noisy)));
      if (planted != nullptr) planted->emplace_back(r, c);
    }
  }
  return out;
}

// ------------------------------------------------------------- imdb_join

/// The 6-table IMDB star: one warm engine answers Integrate over all six
/// tables (name alignment, fuzzy on). FD enumeration dominates.
void RunImdbJoin(const Args& args, Raw* raw) {
  ImdbOptions opts;
  opts.target_tuples = 8000;
  opts.seed = SeedFor(args.seed, "imdb");
  ImdbBenchmark bench = GenerateImdb(opts);
  std::vector<std::shared_ptr<const Table>> tables;
  std::vector<std::string> names;
  for (Table& t : bench.tables) {
    names.push_back(t.name());
    tables.push_back(std::make_shared<const Table>(std::move(t)));
  }
  AddTableSizes(tables, raw);
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = true;

  auto register_all = [&](LakeEngine* engine) {
    for (size_t i = 0; i < tables.size(); ++i) {
      CheckOk(engine->RegisterTable(names[i], tables[i]), "register");
    }
  };

  Fingerprint expected;
  {
    std::unique_ptr<LakeEngine> ref;
    ReferenceProcess reference(
        [&] {
          ref = MakeEngine(1);
          register_all(ref.get());
        },
        [&](uint64_t) -> Result<Answer> {
          auto answer = ref->Integrate(names, req);
          if (!answer.ok()) return answer.status();
          return Answer{TableFingerprint(answer->integrated), {}};
        });
    auto answer = reference.Ask(0);
    CheckOk(answer.status(), "reference Integrate");
    expected = answer->fp;
  }

  std::unique_ptr<LakeEngine> engine;
  const int reps = args.trace ? 1 : kImdbSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    engine.reset();
    const uint64_t t0 = NowNs();
    engine = MakeEngine(raw->pool_threads);
    register_all(engine.get());
    // Warm-up: fills the embedding cache, the schema cache and the
    // dictionary's column memo, which a long-lived engine does not pay
    // per request.
    auto warm = engine->Integrate(names, req);
    raw->setup_s.push_back(MsSince(t0) / 1e3);
    CheckOk(warm.status(), "warm-up Integrate");
    if (TableFingerprint(warm->integrated) != expected) {
      raw->Mismatch("imdb warm-up answer differs from the reference");
    }
  }

  std::unique_ptr<ReplaySession> replay;
  if (args.trace) {
    replay = std::make_unique<ReplaySession>(raw->pool_threads);
    int root = raw->setup_trace.Open("setup", -1);
    for (size_t i = 0; i < tables.size(); ++i) {
      replay->Register(names[i], tables[i], &raw->setup_trace, root,
                       "discovery.build");
    }
    raw->setup_trace.Close(root);
    TracedRequest warm;
    Fingerprint fp;
    CheckOk(replay->Integrate(names, false, &warm, -1, &fp),
            "replay warm-up");
  }

  const uint64_t hits_before = engine->schema_cache_hits();
  uint64_t requests = 0;
  auto untraced = [&]() {
    ++raw->attempted;
    ++requests;
    const uint64_t t0 = NowNs();
    auto answer = engine->Integrate(names, req);
    const double ms = MsSince(t0);
    if (!answer.ok()) {
      raw->Fail("Integrate: " + answer.status().ToString());
      return;
    }
    if (TableFingerprint(answer->integrated) != expected) {
      raw->Mismatch("imdb answer differs from the reference");
      return;
    }
    Cycle c;
    c.request_ms = c.cycle_ms = ms;
    raw->cycles.push_back(c);
  };
  auto traced = [&]() {
    ++raw->attempted;
    TracedRequest log;
    Fingerprint fp;
    const int root = log.Open("request", -1);
    Status s = replay->Integrate(names, false, &log, root, &fp);
    log.Close(root);
    if (!s.ok()) {
      raw->Fail("replay: " + s.ToString());
      return;
    }
    if (fp.values != expected.values || fp.rows != expected.rows) {
      raw->Mismatch("traced replay answer differs from the engine's");
      return;
    }
    raw->traced.push_back(std::move(log));
  };
  TimedLoop(args, raw, [&](size_t i) {
    if (!args.trace) return untraced();
    // Alternate the order so neither side always runs on warmer caches.
    if (i % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
  });
  raw->totals["engine.schema_cache_hits"] =
      static_cast<double>(engine->schema_cache_hits() - hits_before);
  raw->totals["engine.requests"] = static_cast<double>(requests);
}

// ------------------------------------------------------ lake_fuzzy_union

/// A 216-table planted lake; each cycle one held-out group member arrives
/// as a freshly typo'd CSV and is integrated with its discovered partners.
class FuzzyUnion {
 public:
  static constexpr size_t kGroups = 24;
  static constexpr size_t kGroupSize = 5;
  static constexpr size_t kK = 4;
  static constexpr double kTypoRate = 0.1;

  FuzzyUnion(const Args& args, Raw* raw) : args_(args), raw_(raw) {
    LakeOptions opts;
    opts.num_tables = 240;
    opts.num_groups = kGroups;
    opts.group_size = kGroupSize;
    opts.rows_per_table = 200;
    opts.columns_per_table = 6;
    opts.seed = SeedFor(args.seed, "lake");
    GeneratedLake lake = GenerateLake(opts);
    Rng pick(SeedFor(args.seed, "holdout"));
    std::set<std::string> held_names;
    for (size_t g = 0; g < kGroups; ++g) {
      held_names.insert(lake.groups[g][pick.Uniform(kGroupSize)]);
    }
    for (size_t g = 0; g < kGroups; ++g) {
      for (const std::string& name : lake.groups[g]) group_of_[name] = g;
    }
    for (Table& t : lake.tables) {
      auto shared = std::make_shared<const Table>(std::move(t));
      if (held_names.count(shared->name())) {
        held_.push_back(shared);
      } else {
        lake_.push_back(shared);
      }
    }
    AddTableSizes(lake_, raw);
    raw->inputs["held_out_tables"] = static_cast<double>(held_.size());
    csv_path_ = (fs::path(args.workdir) / "arrival.csv").string();
  }

  void Run() {
    // Forked before any engine exists, so the parent has no threads yet.
    // The child writes its arrivals to a CSV file of its own.
    std::unique_ptr<LakeEngine> ref;
    ReferenceProcess reference(
        [&] {
          csv_path_ = (fs::path(args_.workdir) / "reference.csv").string();
          ref = MakeEngine(1);
          RegisterLake(ref.get());
        },
        [&](uint64_t i) -> Result<Answer> {
          TimedArrival(i);  // writes the arrival CSV
          KeepSink sink;
          Cycle ignored;
          Answer want;
          Status s = EngineCycle(ref.get(), &sink, &ignored, &want);
          if (!s.ok()) return s;
          return want;
        });

    const int reps = args_.trace ? 1 : kFuzzySetupReps;
    for (int rep = 0; rep < reps; ++rep) {
      engine_.reset();
      const uint64_t t0 = NowNs();
      engine_ = MakeEngine(raw_->pool_threads);
      RegisterLake(engine_.get());
      // Warm-up: one arrival per group, so every lake table the timed
      // arrivals can meet has its values embedded and interned already.
      for (size_t g = 0; g < kGroups; ++g) {
        Arrival a = MakeArrival("warm", rep * kGroups + g, g);
        KeepSink sink;
        Cycle c;
        Status s = EngineCycle(engine_.get(), &sink, &c, nullptr);
        CheckOk(s, "warm-up cycle");
      }
      raw_->setup_s.push_back(MsSince(t0) / 1e3);
    }

    if (args_.trace) {
      replay_ = std::make_unique<ReplaySession>(raw_->pool_threads);
      int root = raw_->setup_trace.Open("setup", -1);
      for (const auto& t : lake_) {
        replay_->Register(t->name(), t, &raw_->setup_trace, root,
                          "discovery.build");
      }
      raw_->setup_trace.Close(root);
      for (size_t g = 0; g < kGroups; ++g) {
        MakeArrival("warm", g, g);  // writes the arrival CSV
        TracedRequest log;
        Fingerprint fp;
        CheckOk(ReplayCycle(&log, &fp), "replay warm-up");
      }
    }

    const uint64_t hits_before = engine_->schema_cache_hits();
    TimedLoop(args_, raw_, [&](size_t i) {
      // The reference answer is computed outside timing, once per arrival.
      auto want = reference.Ask(i);
      if (!want.ok()) {
        ++raw_->attempted;
        return raw_->Fail("reference cycle: " + want.status().ToString());
      }
      Arrival a = TimedArrival(i);
      if (!args_.trace || i % 2 == 0) {
        Measured(a, *want);
        if (args_.trace) Traced(*want);
      } else {
        Traced(*want);
        Measured(a, *want);
      }
    });
    raw_->totals["engine.schema_cache_hits"] =
        static_cast<double>(engine_->schema_cache_hits() - hits_before);
    raw_->totals["engine.requests"] = static_cast<double>(requests_);
  }

 private:
  struct Arrival {
    size_t group = 0;
    std::shared_ptr<const Table> clean;
    Table noisy;
    std::vector<std::pair<size_t, size_t>> planted;
  };

  void RegisterLake(LakeEngine* engine) {
    for (const auto& t : lake_) {
      CheckOk(engine->RegisterTable(t->name(), t), "register lake table");
    }
  }

  /// Arrival number `i` of `stream`: the held-out member of `group`, each
  /// cell typo'd with probability kTypoRate, written as the arrival CSV.
  Arrival MakeArrival(const char* stream, size_t i, size_t group) {
    Arrival a;
    a.group = group;
    a.clean = held_[group];
    Rng rng(SeedFor(args_.seed, stream, i));
    a.noisy = Typo(*a.clean, kTypoRate, &rng, &a.planted);
    CheckOk(WriteCsvFile(a.noisy, csv_path_), "write arrival csv");
    return a;
  }

  /// Timed arrival number `i`, of a group picked from the seed.
  Arrival TimedArrival(size_t i) {
    Rng pick(SeedFor(args_.seed, "arrival", i));
    return MakeArrival("timed", i, pick.Uniform(kGroups));
  }

  /// RegisterCsv → DiscoverAndIntegrate(k) → Unregister of the arrival
  /// CSV on `engine`; the answer (when wanted) is fingerprinted after the
  /// timer stops.
  Status EngineCycle(LakeEngine* engine, KeepSink* sink, Cycle* c,
                     Answer* answer) {
    const uint64_t t0 = NowNs();
    Status reg = engine->RegisterCsv(kArrival, csv_path_);
    const uint64_t t1 = NowNs();
    if (!reg.ok()) return reg;
    std::vector<DiscoveryCandidate> discovered;
    auto report = engine->DiscoverAndIntegrate(kArrival, kK, sink,
                                               RequestOptions(), &discovered);
    const uint64_t t2 = NowNs();
    Status unreg = engine->Unregister(kArrival);
    const uint64_t t3 = NowNs();
    if (!report.ok()) return report.status();
    if (!unreg.ok()) return unreg;
    c->ingest_ms = static_cast<double>(t1 - t0) / 1e6;
    c->request_ms = static_cast<double>(t2 - t1) / 1e6;
    c->cycle_ms = static_cast<double>(t3 - t0) / 1e6;
    if (answer != nullptr) {
      answer->fp = sink->fingerprint();
      answer->discovered = Names(discovered);
    }
    return Status::OK();
  }

  void Measured(const Arrival& a, const Answer& want) {
    ++raw_->attempted;
    KeepSink sink;
    Cycle c;
    Answer got;
    ++requests_;
    Status s = EngineCycle(engine_.get(), &sink, &c, &got);
    if (!s.ok()) return raw_->Fail("fuzzy cycle: " + s.ToString());
    if (got.fp != want.fp || got.discovered != want.discovered) {
      return raw_->Mismatch("fuzzy answer differs from the reference");
    }
    raw_->cycles.push_back(c);
    Score(a, sink, got.discovered);
  }

  /// Repair and discovery quality of one answer, accumulated as counts.
  void Score(const Arrival& a, const KeepSink& sink,
             const std::vector<std::string>& discovered) {
    auto& t = raw_->totals;
    size_t partners = 0;
    for (const std::string& name : discovered) {
      auto it = group_of_.find(name);
      if (it != group_of_.end() && it->second == a.group) ++partners;
    }
    t["quality.discovery_hits"] += static_cast<double>(partners);
    t["quality.discovery_wanted"] += static_cast<double>(kGroupSize - 1);

    std::vector<long> column_of(a.noisy.NumColumns(), -1);
    for (size_t c = 0; c < a.noisy.NumColumns(); ++c) {
      const std::string& header = a.noisy.schema().field(c).name;
      for (size_t u = 0; u < sink.names().size(); ++u) {
        if (sink.names()[u] == header) column_of[c] = static_cast<long>(u);
      }
    }
    std::set<std::pair<size_t, size_t>> planted(a.planted.begin(),
                                                a.planted.end());
    t["quality.repair_planted"] += static_cast<double>(planted.size());
    const auto rows = sink.RowsOfTids(a.noisy.NumRows());
    for (size_t r = 0; r < a.noisy.NumRows(); ++r) {
      const std::vector<Value>* row = rows[r];
      for (size_t c = 0; c < a.noisy.NumColumns(); ++c) {
        const Value& given = a.noisy.At(r, c);
        if (given.is_null() || row == nullptr || column_of[c] < 0) continue;
        const Value& out = (*row)[static_cast<size_t>(column_of[c])];
        const std::string out_s = out.is_null() ? "" : out.ToString();
        if (out_s == given.ToString()) continue;
        t["quality.repair_changed"] += 1;
        if (planted.count({r, c}) && out_s == a.clean->At(r, c).ToString()) {
          t["quality.repair_correct"] += 1;
        }
      }
    }
  }

  /// The current arrival's cycle through the layer replay, under benchmark
  /// spans.
  Status ReplayCycle(TracedRequest* log, Fingerprint* fp) {
    const int cycle = log->Open("cycle", -1);
    const int ingest = log->Open("ingest", cycle);
    auto table = replay_->ReadCsv(csv_path_, kArrival, log, ingest);
    if (!table.ok()) return table.status();
    replay_->Register(kArrival, *table, log, ingest, "discovery.sketch");
    log->Close(ingest);
    const int request = log->Open("request", cycle);
    auto found = replay_->TopK(kArrival, kK, log, request);
    Status s = found.status();
    if (s.ok()) {
      std::vector<std::string> names{kArrival};
      for (const auto& c : *found) names.push_back(c.name);
      s = replay_->Integrate(names, true, log, request, fp);
    }
    log->Close(request);
    replay_->Unregister(kArrival);
    log->Close(cycle);
    return s;
  }

  void Traced(const Answer& want) {
    ++raw_->attempted;
    TracedRequest log;
    Fingerprint fp;
    Status s = ReplayCycle(&log, &fp);
    if (!s.ok()) return raw_->Fail("replay cycle: " + s.ToString());
    if (fp != want.fp) {
      return raw_->Mismatch("traced replay answer differs from the engine's");
    }
    raw_->traced.push_back(std::move(log));
  }

  static constexpr const char* kArrival = "arrival";

  const Args& args_;
  Raw* raw_;
  std::vector<std::shared_ptr<const Table>> lake_;
  std::vector<std::shared_ptr<const Table>> held_;  ///< by group
  std::map<std::string, size_t> group_of_;
  std::string csv_path_;
  std::unique_ptr<LakeEngine> engine_;
  std::unique_ptr<ReplaySession> replay_;
  uint64_t requests_ = 0;
};

// ----------------------------------------------------------- lake_restart

/// A 240-table lake behind a durable catalog: each cycle the writer
/// replaces a few tables and checkpoints, then a fresh engine reopens the
/// catalog and answers its first discovery query.
class Restart {
 public:
  static constexpr size_t kReplaced = 3;
  static constexpr size_t kK = 5;

  Restart(const Args& args, Raw* raw) : args_(args), raw_(raw) {
    LakeOptions opts;
    opts.num_tables = 240;
    opts.num_groups = 24;
    opts.group_size = 5;
    opts.rows_per_table = 800;
    opts.columns_per_table = 6;
    opts.seed = SeedFor(args.seed, "restart_lake");
    GeneratedLake lake = GenerateLake(opts);
    for (const auto& group : lake.groups) {
      for (const auto& name : group) members_.push_back(name);
    }
    for (Table& t : lake.tables) {
      tables_.push_back(std::make_shared<const Table>(std::move(t)));
    }
    AddTableSizes(tables_, raw);
    dir_ = (fs::path(args.workdir) / "catalog").string();
  }

  void Run() {
    const int reps = args_.trace ? 1 : kRestartSetupReps;
    for (int rep = 0; rep < reps; ++rep) {
      writer_.reset();
      fs::remove_all(dir_);
      const uint64_t t0 = NowNs();
      writer_ = MakeEngine(raw_->pool_threads);
      for (const auto& t : tables_) {
        CheckOk(writer_->RegisterTable(t->name(), t), "register");
      }
      CheckOk(writer_->DiscoverUnionable(members_[0], kK).status(),
              "cold discovery");
      auto saved = writer_->SaveCatalog(dir_);
      raw_->setup_s.push_back(MsSince(t0) / 1e3);
      CheckOk(saved.status(), "full SaveCatalog");
    }
    current_ = tables_;

    if (args_.trace) {
      ReplaySession replay(raw_->pool_threads);
      int root = raw_->setup_trace.Open("setup", -1);
      for (const auto& t : tables_) {
        replay.Register(t->name(), t, &raw_->setup_trace, root,
                        "discovery.build");
      }
      raw_->setup_trace.Close(root);
    }

    TimedLoop(args_, raw_, [&](size_t i) {
      RunCycle(i, args_.trace && i % 2 == 1);
    });
    uint64_t catalog_bytes = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
      if (entry.is_regular_file()) catalog_bytes += entry.file_size();
    }
    raw_->totals["catalog.disk_bytes"] = static_cast<double>(catalog_bytes);
  }

 private:
  void RunCycle(size_t i, bool traced) {
    ++raw_->attempted;
    TracedRequest log;
    const int cycle_span = log.Open("cycle", -1);
    Rng rng(SeedFor(args_.seed, "restart", i));
    Cycle c;
    const uint64_t t0 = NowNs();
    for (size_t n = 0; n < kReplaced; ++n) {
      const size_t slot = rng.Uniform(current_.size());
      auto next = std::make_shared<const Table>(
          Typo(*current_[slot], 0.01, &rng, nullptr));
      const std::string& name = next->name();
      Status s = writer_->Unregister(name);
      if (s.ok()) {
        BenchSpan span(&log, "discovery.sketch", cycle_span);
        s = writer_->RegisterTable(name, next);
      }
      if (!s.ok()) return raw_->Fail("replace table: " + s.ToString());
      current_[slot] = next;
    }
    const uint64_t t1 = NowNs();
    int save_span = log.Open("catalog.save", cycle_span);
    auto saved = writer_->SaveCatalog(dir_);
    log.Close(save_span);
    const uint64_t t2 = NowNs();
    if (!saved.ok()) return raw_->Fail("SaveCatalog: " + saved.status().ToString());

    const std::string probe = members_[rng.Uniform(members_.size())];
    auto want = writer_->DiscoverUnionable(probe, kK);
    if (!want.ok()) return raw_->Fail("writer discovery: " + want.status().ToString());

    const uint64_t t3 = NowNs();
    const int request = log.Open("request", cycle_span);
    std::unique_ptr<LakeEngine> reader = MakeEngine(raw_->pool_threads);
    int open_span = log.Open("catalog.open", request);
    auto opened = reader->OpenCatalog(dir_);
    log.Close(open_span);
    std::vector<DiscoveryCandidate> got;
    Status s = opened.status();
    if (s.ok()) {
      BenchSpan span(&log, "discovery.query", request);
      auto top = reader->DiscoverUnionable(probe, kK);
      s = top.status();
      if (s.ok()) got = std::move(top).value();
    }
    log.Close(request);
    const uint64_t t4 = NowNs();
    log.Close(cycle_span);
    reader.reset();
    if (!s.ok()) return raw_->Fail("restart: " + s.ToString());

    if (opened->columns_resketched != 0) {
      return raw_->Mismatch("reopened catalog re-sketched columns");
    }
    if (opened->tables_loaded != writer_->NumTables()) {
      return raw_->Mismatch("reopened catalog is missing tables");
    }
    if (!SameRanking(got, *want)) {
      return raw_->Mismatch("top-k after reopening differs from the writer's");
    }
    log.Add("catalog.values_loaded", static_cast<double>(opened->values_loaded));
    log.Add("catalog.mapped_bytes", static_cast<double>(opened->mapped_bytes));
    log.Add("catalog.columns_resketched",
            static_cast<double>(opened->columns_resketched));
    log.Add("catalog.bytes_written", static_cast<double>(saved->bytes_written));
    log.Add("catalog.tables_written",
            static_cast<double>(saved->tables_written));
    log.Add("catalog.generations_removed",
            static_cast<double>(saved->generations_removed));
    if (traced) {
      raw_->traced.push_back(std::move(log));
      return;
    }
    c.checkpoint_ms = static_cast<double>(t2 - t1) / 1e6;
    c.request_ms = static_cast<double>(t4 - t3) / 1e6;
    c.cycle_ms = static_cast<double>((t2 - t0) + (t4 - t3)) / 1e6;
    raw_->cycles.push_back(c);
  }

  const Args& args_;
  Raw* raw_;
  std::vector<std::shared_ptr<const Table>> tables_;
  std::vector<std::shared_ptr<const Table>> current_;
  std::vector<std::string> members_;
  std::string dir_;
  std::unique_ptr<LakeEngine> writer_;
};

// ------------------------------------------------------------------ output

void WriteSpans(const TracedRequest& t, JsonWriter* w) {
  const uint64_t base = t.spans.empty() ? 0 : t.spans.front().start_ns;
  w->Key("spans").BeginArray();
  for (const SpanRecord& s : t.spans) {
    w->BeginArray()
        .String(s.name)
        .Number(s.parent)
        .Number(static_cast<double>(s.start_ns - base))
        .Number(static_cast<double>(s.end_ns - base))
        .EndArray();
  }
  w->EndArray();
  w->Key("counters").BeginObject();
  for (const auto& [k, v] : t.counters) w->Key(k).Number(v);
  w->EndObject();
}

std::string Render(const Raw& raw) {
  JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(raw.workload);
  w.Key("seed").Number(static_cast<double>(raw.seed));
  w.Key("trace").Number(raw.trace);
  w.Key("context").BeginObject();
  w.Key("nproc").Number(static_cast<double>(raw.hw.hardware_concurrency));
  w.Key("cores_granted").Number(static_cast<double>(raw.hw.cores_granted));
  w.Key("pool_threads").Number(static_cast<double>(raw.pool_threads));
  w.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  w.Key("tracing_compiled_in").Bool(kTracingCompiledIn);
  w.EndObject();
  w.Key("inputs").BeginObject();
  for (const auto& [k, v] : raw.inputs) w.Key(k).Number(v);
  w.EndObject();
  w.Key("setup_s").BeginArray();
  for (double s : raw.setup_s) w.Number(s);
  w.EndArray();
  w.Key("cycles").BeginArray();
  for (const Cycle& c : raw.cycles) {
    w.BeginObject();
    w.Key("request_ms").Number(c.request_ms);
    w.Key("cycle_ms").Number(c.cycle_ms);
    w.Key("ingest_ms").Number(c.ingest_ms);
    w.Key("checkpoint_ms").Number(c.checkpoint_ms);
    w.EndObject();
  }
  w.EndArray();
  w.Key("attempted").Number(static_cast<double>(raw.attempted));
  w.Key("failed").Number(static_cast<double>(raw.failed));
  w.Key("mismatches").Number(static_cast<double>(raw.mismatches));
  w.Key("errors").BeginArray();
  for (const auto& e : raw.errors) w.String(e);
  w.EndArray();
  w.Key("loop_s").Number(raw.loop_s);
  w.Key("peak_rss_mb").Number(raw.peak_rss_mb);
  w.Key("totals").BeginObject();
  for (const auto& [k, v] : raw.totals) w.Key(k).Number(v);
  w.EndObject();
  w.Key("setup_trace").BeginObject();
  WriteSpans(raw.setup_trace, &w);
  w.EndObject();
  w.Key("traced").BeginArray();
  for (const TracedRequest& t : raw.traced) {
    w.BeginObject();
    WriteSpans(t, &w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --raw PATH\n");
    return 2;
  }
  Raw raw;
  raw.workload = args.workload;
  raw.seed = args.seed;
  raw.trace = args.trace;
  raw.hw = lakefuzz::QueryHardware();
  raw.pool_threads = raw.hw.cores_granted > 1 ? raw.hw.cores_granted - 1 : 1;
  if (args.workload == "imdb_join") {
    RunImdbJoin(args, &raw);
  } else if (args.workload == "lake_fuzzy_union") {
    FuzzyUnion(args, &raw).Run();
  } else if (args.workload == "lake_restart") {
    Restart(args, &raw).Run();
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  std::ofstream out(args.raw, std::ios::binary | std::ios::trunc);
  out << Render(raw) << '\n';
  out.close();
  if (!out) Die("cannot write " + args.raw);
  return 0;
}
