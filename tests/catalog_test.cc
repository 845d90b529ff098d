// Tests for the durable lake catalog (src/catalog/): save → open round
// trips that reproduce Integrate / DiscoverUnionable byte-for-byte across
// thread counts, golden hash stability (the on-disk format's contract with
// Value::Hash / MinHash / LSH band keys), a corruption matrix that must
// degrade to typed errors instead of crashing, no-resurrection of dropped
// tables, and incremental checkpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/engine.h"
#include "datagen/lake.h"
#include "discovery/column_sketch.h"
#include "discovery/lsh_index.h"
#include "util/hash.h"

namespace lakefuzz {
namespace {

Value S(const std::string& s) { return Value::String(s); }

/// Fresh per-test catalog directory under the gtest temp root.
std::string FreshDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/lakefuzz_catalog_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string PathOf(const std::string& dir, const char* file) {
  return dir + "/" + file;
}

/// Path of a generation's manifest. A fresh directory's first save commits
/// generation 1, which these tests rely on throughout.
std::string ManifestPath(const std::string& dir, uint64_t gen = 1) {
  return dir + "/" + CatalogManifestFileName(gen);
}

/// Path of a segment file at base `base` (1 after a fresh first save).
std::string SegmentPath(const std::string& dir, const char* stem,
                        uint64_t base = 1) {
  return dir + "/" + CatalogSegmentFileName(stem, base);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Patches the manifest's trailing checksum so tampering with the body is
/// seen as *valid-but-different* content (exercising the semantic checks)
/// rather than tripping the integrity check first.
void FixupManifestChecksum(std::string* manifest) {
  ASSERT_GE(manifest->size(), sizeof(uint64_t));
  const uint64_t sum =
      Fnv1a64(manifest->data(), manifest->size() - sizeof(uint64_t));
  std::memcpy(&(*manifest)[manifest->size() - sizeof(uint64_t)], &sum,
              sizeof(sum));
}

std::vector<Table> SmallLake() {
  std::vector<Table> tables;
  auto t0 = Table::FromRows("cities", {"City", "Country"},
                            {{S("Berlin"), S("Germany")},
                             {S("Toronto"), S("Canada")},
                             {S("Lima"), S("Peru")},
                             {Value::Null(), S("Nowhere")}});
  auto t1 = Table::FromRows("rates", {"City", "VacRate"},
                            {{S("Berlin"), Value::Double(0.63)},
                             {S("Lima"), Value::Double(0.71)},
                             {S("Quito"), Value::Double(0.55)}});
  auto t2 = Table::FromRows("mayors", {"City", "Mayor", "Since"},
                            {{S("Toronto"), S("Olivia"), Value::Int(2023)},
                             {S("Quito"), S("Pabel"), Value::Int(2023)},
                             {S("Berlin"), S("Kai"), Value::Int(2024)}});
  EXPECT_TRUE(t0.ok() && t1.ok() && t2.ok());
  tables.push_back(std::move(t0).value());
  tables.push_back(std::move(t1).value());
  tables.push_back(std::move(t2).value());
  return tables;
}

std::unique_ptr<LakeEngine> MakeEngine(size_t threads) {
  auto engine = LakeEngine::Create(EngineOptions().SetNumThreads(threads));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

std::unique_ptr<LakeEngine> MakeEngineWithSmallLake(size_t threads) {
  auto engine = MakeEngine(threads);
  for (auto& t : SmallLake()) {
    EXPECT_TRUE(engine->RegisterTable(t.name(), t).ok());
  }
  return engine;
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    EXPECT_EQ(a.schema().field(c).name, b.schema().field(c).name);
  }
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      EXPECT_TRUE(a.At(r, c) == b.At(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }
}

void ExpectSameCandidates(const std::vector<DiscoveryCandidate>& a,
                          const std::vector<DiscoveryCandidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
    EXPECT_EQ(a[i].overlap, b[i].overlap) << "rank " << i;
    EXPECT_EQ(a[i].compat, b[i].compat) << "rank " << i;
  }
}

// ----------------------------------------------------------- round trips

/// The acceptance property: SaveCatalog then OpenCatalog in a fresh engine
/// yields byte-identical Integrate and DiscoverUnionable results vs the
/// writer engine, at 1 / 2 / 8 threads, with zero columns re-sketched.
TEST(CatalogRoundTripTest, IdenticalResultsAcrossThreadCounts) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir =
        FreshDir("roundtrip_t" + std::to_string(threads));
    const std::vector<std::string> names = {"cities", "rates", "mayors"};

    auto writer = MakeEngineWithSmallLake(threads);
    auto cold = writer->Integrate(names);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto cold_top = writer->DiscoverUnionable("cities", 2);
    ASSERT_TRUE(cold_top.ok());

    auto saved = writer->SaveCatalog(dir);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    EXPECT_FALSE(saved->incremental);
    EXPECT_EQ(saved->tables_written, 3u);
    // The writer's discovery index was synced, so the save persisted its
    // sketches as-is.
    EXPECT_EQ(saved->columns_resketched, 0u);

    auto reader = MakeEngine(threads);
    auto opened = reader->OpenCatalog(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->tables_loaded, 3u);
    EXPECT_EQ(opened->tables_kept, 0u);
    EXPECT_EQ(opened->columns_resketched, 0u);
    EXPECT_EQ(opened->values_loaded,
              writer->session_dict().NumDistinct());
    EXPECT_EQ(reader->discovery_index().num_tables(), 3u);

    // Warm requests must not re-intern anything: the dictionary was
    // replayed and every column memo was seeded from persisted codes.
    const uint64_t interned_after_open =
        reader->session_dict().stats().values_interned;
    auto warm = reader->Integrate(names);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    auto warm_top = reader->DiscoverUnionable("cities", 2);
    ASSERT_TRUE(warm_top.ok());
    EXPECT_EQ(reader->session_dict().stats().values_interned,
              interned_after_open);

    ExpectTablesIdentical(cold->integrated, warm->integrated);
    ExpectSameCandidates(*cold_top, *warm_top);
  }
}

TEST(CatalogRoundTripTest, GeneratedLakeSurvivesRestart) {
  const std::string dir = FreshDir("genlake");
  LakeOptions opts;
  opts.num_tables = 24;
  opts.num_groups = 4;
  opts.group_size = 3;
  opts.rows_per_table = 30;
  auto lake = GenerateLake(opts);

  auto writer = MakeEngine(2);
  for (const Table& t : lake.tables) {
    ASSERT_TRUE(writer->RegisterTable(t.name(), t).ok());
  }
  auto cold_top = writer->DiscoverUnionable(lake.groups[0][0], 4);
  ASSERT_TRUE(cold_top.ok());
  auto saved = writer->SaveCatalog(dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved->tables_written, lake.tables.size());

  auto reader = MakeEngine(2);
  auto opened = reader->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_loaded, lake.tables.size());
  EXPECT_EQ(opened->columns_resketched, 0u);
  EXPECT_GT(opened->mapped_bytes, 0u);

  auto warm_top = reader->DiscoverUnionable(lake.groups[0][0], 4);
  ASSERT_TRUE(warm_top.ok());
  ExpectSameCandidates(*cold_top, *warm_top);
}

/// Opening into an engine that already holds one of the cataloged names
/// keeps the live table and loads the rest.
TEST(CatalogRoundTripTest, LiveTablesWinOverCatalog) {
  const std::string dir = FreshDir("livewins");
  auto writer = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(writer->SaveCatalog(dir).ok());

  auto reader = MakeEngine(1);
  auto replacement = Table::FromRows("cities", {"City"}, {{S("Oslo")}});
  ASSERT_TRUE(replacement.ok());
  ASSERT_TRUE(
      reader->RegisterTable("cities", std::move(replacement).value()).ok());

  auto opened = reader->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_kept, 1u);
  EXPECT_EQ(opened->tables_loaded, 2u);
  auto live = reader->Integrate({"cities"});
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->integrated.NumRows(), 1u);  // the live Oslo table

  // The next save from this engine must rewrite (codes diverged from the
  // file's numbering) and persist the live view, not the stale catalog's.
  auto resaved = reader->SaveCatalog(dir);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  auto fresh = MakeEngine(1);
  ASSERT_TRUE(fresh->OpenCatalog(dir).ok());
  auto reloaded = fresh->Integrate({"cities"});
  ASSERT_TRUE(reloaded.ok());
  ExpectTablesIdentical(live->integrated, reloaded->integrated);
}

// ------------------------------------------------- thread-count invariance

/// The dictionary must hold exactly `want`'s codes: same value and content
/// hash under every code.
void ExpectSameDictionary(const LakeEngine& got, const LakeEngine& want) {
  const ValueDict& a = got.session_dict().dict();
  const ValueDict& b = want.session_dict().dict();
  ASSERT_EQ(a.NumDistinct(), b.NumDistinct());
  for (uint32_t code = 1; code <= b.NumDistinct(); ++code) {
    ASSERT_TRUE(a.Decode(code) == b.Decode(code)) << "code " << code;
    ASSERT_EQ(a.HashOf(code), b.HashOf(code)) << "code " << code;
  }
}

/// Same tables with the same cells, same top-k for `probe`.
void ExpectSameLake(LakeEngine* got, LakeEngine* want,
                    const std::string& probe) {
  std::vector<std::string> names = want->TableNames();
  std::vector<std::string> got_names = got->TableNames();
  std::sort(names.begin(), names.end());
  std::sort(got_names.begin(), got_names.end());
  ASSERT_EQ(got_names, names);
  RequestOptions req;
  req.holistic_alignment = false;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto a = got->Integrate({name}, req);
    auto b = want->Integrate({name}, req);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectTablesIdentical(a->integrated, b->integrated);
  }
  auto got_top = got->DiscoverUnionable(probe, 4);
  auto want_top = want->DiscoverUnionable(probe, 4);
  ASSERT_TRUE(got_top.ok() && want_top.ok());
  ExpectSameCandidates(*got_top, *want_top);
}

/// A private copy of a catalog directory, so each engine can checkpoint
/// into its own without invalidating the others' state.
std::string CopyCatalog(const std::string& from, const std::string& tag) {
  const std::string to = FreshDir(tag);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
  return to;
}

/// The parallel warm open (checksums, bulk dictionary restore, table
/// staging on the engine pool) must not depend on the pool size: every
/// thread count, and a replica through open and refresh, yields the
/// writer's codes, cells and top-k, and a following checkpoint is
/// incremental and writes the same manifest bytes.
TEST(CatalogThreadInvarianceTest, WarmOpenIsIdenticalAtEveryThreadCount) {
  const std::string dir = FreshDir("invariance");
  LakeOptions opts;
  opts.num_tables = 24;
  opts.num_groups = 4;
  opts.group_size = 3;
  opts.rows_per_table = 60;
  opts.columns_per_table = 6;
  auto lake = GenerateLake(opts);
  const std::string probe = lake.groups[0][0];
  auto writer = MakeEngine(1);
  for (const Table& t : lake.tables) {
    ASSERT_TRUE(writer->RegisterTable(t.name(), t).ok());
  }
  ASSERT_TRUE(writer->SaveCatalog(dir).ok());
  const size_t value_count = writer->session_dict().NumDistinct();
  // Several dictionary storage buckets and restore ranges are in play.
  ASSERT_GT(value_count, 4096u);

  std::string manifest_t1;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string copy =
        CopyCatalog(dir, "invariance_t" + std::to_string(threads));
    auto reader = MakeEngine(threads);
    auto opened = reader->OpenCatalog(copy);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->values_loaded, value_count);
    EXPECT_EQ(reader->session_dict().stats().values_interned, value_count);
    EXPECT_EQ(opened->tables_loaded, lake.tables.size());
    ExpectSameDictionary(*reader, *writer);
    ExpectSameLake(reader.get(), writer.get(), probe);

    auto saved = reader->SaveCatalog(copy);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    EXPECT_TRUE(saved->incremental);
    EXPECT_EQ(saved->tables_reused, lake.tables.size());
    EXPECT_EQ(saved->tables_written, 0u);
    const std::string manifest = ReadAll(ManifestPath(copy, 2));
    if (threads == 1) manifest_t1 = manifest;
    EXPECT_EQ(manifest, manifest_t1);
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("replica threads=" + std::to_string(threads));
    const std::string copy =
        CopyCatalog(dir, "invariance_replica_t" + std::to_string(threads));
    auto replica = LakeEngine::OpenReplica(
        copy, EngineOptions().SetNumThreads(threads));
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    EXPECT_EQ((*replica)->catalog_stats().values_loaded, value_count);
    EXPECT_EQ((*replica)->session_dict().stats().values_interned,
              value_count);
    ExpectSameDictionary(**replica, *writer);
    ExpectSameLake(replica->get(), writer.get(), probe);

    // A writer on the same copy replaces one table with new values; the
    // refresh replays only the new values and must land on its codes.
    auto next_writer = MakeEngine(threads);
    ASSERT_TRUE(next_writer->OpenCatalog(copy).ok());
    const Table& old = lake.tables[1];
    std::vector<std::vector<Value>> rows;
    for (size_t r = 0; r < old.NumRows(); ++r) {
      std::vector<Value> row = old.Row(r);
      row[0] = S("replaced_" + std::to_string(r));
      rows.push_back(std::move(row));
    }
    std::vector<std::string> columns;
    for (size_t c = 0; c < old.NumColumns(); ++c) {
      columns.push_back(old.schema().field(c).name);
    }
    auto replacement = Table::FromRows(old.name(), columns, std::move(rows));
    ASSERT_TRUE(replacement.ok());
    ASSERT_TRUE(next_writer->Unregister(old.name()).ok());
    ASSERT_TRUE(next_writer
                    ->RegisterTable(old.name(), std::move(replacement).value())
                    .ok());
    auto saved = next_writer->SaveCatalog(copy);
    ASSERT_TRUE(saved.ok() && saved->incremental);

    auto refreshed = (*replica)->RefreshReplica();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    EXPECT_EQ(refreshed->tables_replaced, 1u);
    EXPECT_EQ(refreshed->values_loaded,
              next_writer->session_dict().NumDistinct() - value_count);
    ExpectSameDictionary(**replica, *next_writer);
    ExpectSameLake(replica->get(), next_writer.get(), probe);
  }
}

// ------------------------------------------------------- incremental saves

TEST(CatalogIncrementalTest, SecondSaveAppendsOnly) {
  const std::string dir = FreshDir("incremental");
  auto engine = MakeEngineWithSmallLake(1);
  auto first = engine->SaveCatalog(dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->incremental);

  // No mutation in between: everything is reused, nothing is appended.
  auto noop = engine->SaveCatalog(dir);
  ASSERT_TRUE(noop.ok());
  EXPECT_TRUE(noop->incremental);
  EXPECT_EQ(noop->tables_reused, 3u);
  EXPECT_EQ(noop->tables_written, 0u);
  EXPECT_EQ(noop->values_appended, 0u);

  auto extra = Table::FromRows("extra", {"City", "Airport"},
                               {{S("Berlin"), S("BER")},
                                {S("Lima"), S("LIM")}});
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(engine->RegisterTable("extra", std::move(extra).value()).ok());
  auto second = engine->SaveCatalog(dir);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->incremental);
  EXPECT_EQ(second->tables_reused, 3u);
  EXPECT_EQ(second->tables_written, 1u);
  EXPECT_GT(second->values_appended, 0u);   // "BER" / "LIM" are new
  EXPECT_EQ(second->columns_resketched, 0u);

  auto reader = MakeEngine(2);
  auto opened = reader->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_loaded, 4u);
  auto a = engine->Integrate({"cities", "extra"});
  auto b = reader->Integrate({"cities", "extra"});
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectTablesIdentical(a->integrated, b->integrated);
}

/// Tampering with a segment file behind the engine's back invalidates the
/// incremental fast path — the save must detect the size mismatch and fall
/// back to a full rewrite instead of appending onto foreign bytes.
TEST(CatalogIncrementalTest, ExternallyGrownSegmentForcesRewrite) {
  const std::string dir = FreshDir("extgrown");
  auto engine = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(engine->SaveCatalog(dir).ok());
  std::ofstream out(SegmentPath(dir, kCatalogValuesStem),
                    std::ios::binary | std::ios::app);
  out << "garbage";
  out.close();

  auto resaved = engine->SaveCatalog(dir);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_FALSE(resaved->incremental);
  auto reader = MakeEngine(1);
  EXPECT_TRUE(reader->OpenCatalog(dir).ok());
}

// -------------------------------------------------------- no resurrection

TEST(CatalogUnregisterTest, DroppedTableDoesNotResurrect) {
  const std::string dir = FreshDir("noresurrect");
  auto engine = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(engine->SaveCatalog(dir).ok());

  ASSERT_TRUE(engine->Unregister("rates").ok());
  auto resaved = engine->SaveCatalog(dir);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_TRUE(resaved->incremental);
  EXPECT_EQ(resaved->tables_reused, 2u);

  auto reader = MakeEngine(1);
  auto opened = reader->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_loaded, 2u);
  EXPECT_EQ(reader->NumTables(), 2u);
  EXPECT_EQ(reader->Integrate({"rates"}).code(), ErrorCode::kNotFound);
  EXPECT_EQ(reader->discovery_index().num_tables(), 2u);
}

TEST(CatalogUnregisterTest, ReRegisteredTableRefreshesFingerprint) {
  const std::string dir = FreshDir("refresh");
  auto engine = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(engine->SaveCatalog(dir).ok());

  ASSERT_TRUE(engine->Unregister("rates").ok());
  auto changed = Table::FromRows("rates", {"City", "VacRate"},
                                 {{S("Berlin"), Value::Double(0.99)}});
  ASSERT_TRUE(changed.ok());
  ASSERT_TRUE(
      engine->RegisterTable("rates", std::move(changed).value()).ok());
  auto resaved = engine->SaveCatalog(dir);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_TRUE(resaved->incremental);
  // The changed table's fingerprint no longer matches: it is rewritten,
  // the untouched ones reuse their extents.
  EXPECT_EQ(resaved->tables_written, 1u);
  EXPECT_EQ(resaved->tables_reused, 2u);

  auto reader = MakeEngine(1);
  ASSERT_TRUE(reader->OpenCatalog(dir).ok());
  auto got = reader->Integrate({"rates"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->integrated.NumRows(), 1u);
  EXPECT_TRUE(got->integrated.At(0, 1) == Value::Double(0.99));
}

// ------------------------------------------------ generations & retention

TEST(CatalogGenerationTest, GenerationsAdvanceAndCurrentTracksLatest) {
  const std::string dir = FreshDir("generations");
  auto engine = MakeEngineWithSmallLake(1);

  auto first = engine->SaveCatalog(dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->generation, 1u);
  EXPECT_EQ(first->base, 1u);
  auto current = CatalogCurrentGeneration(dir);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 1u);

  auto second = engine->SaveCatalog(dir);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->generation, 2u);
  EXPECT_TRUE(second->incremental);
  EXPECT_EQ(second->base, 1u);  // incremental keeps the base segments
  current = CatalogCurrentGeneration(dir);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 2u);
  EXPECT_EQ(engine->catalog_generation(), 2u);

  // Default retention keeps the newest two generations' manifests.
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(dir, 2)));

  auto third = engine->SaveCatalog(dir);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->generation, 3u);
  EXPECT_GE(third->generations_removed, 1u);
  EXPECT_FALSE(std::filesystem::exists(ManifestPath(dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(dir, 2)));
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(dir, 3)));

  // Every committed generation still opens to the same lake.
  auto reader = MakeEngine(1);
  ASSERT_TRUE(reader->OpenCatalog(dir).ok());
  EXPECT_EQ(reader->catalog_generation(), 3u);
  EXPECT_EQ(reader->NumTables(), 3u);
}

TEST(CatalogGenerationTest, RetentionKnobTrimsOldGenerations) {
  const std::string dir = FreshDir("retention");
  auto engine = LakeEngine::Create(
      EngineOptions().SetNumThreads(1).SetCatalogRetainGenerations(1));
  ASSERT_TRUE(engine.ok());
  for (auto& t : SmallLake()) {
    ASSERT_TRUE((*engine)->RegisterTable(t.name(), t).ok());
  }
  ASSERT_TRUE((*engine)->SaveCatalog(dir).ok());
  auto second = (*engine)->SaveCatalog(dir);
  ASSERT_TRUE(second.ok());
  // retain=1: the moment generation 2 commits, generation 1's manifest is
  // unreferenced and removed.
  EXPECT_EQ(second->generations_removed, 1u);
  EXPECT_FALSE(std::filesystem::exists(ManifestPath(dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(dir, 2)));
  EXPECT_TRUE(MakeEngine(1)->OpenCatalog(dir).ok());
}

TEST(CatalogGenerationTest, RetentionKnobRejectsZero) {
  EXPECT_EQ(EngineOptions().SetCatalogRetainGenerations(0).Validate().code(),
            ErrorCode::kInvalidArgument);
}

TEST(CatalogGenerationTest, FullRewriteLeavesPriorBaseSegmentsIntact) {
  const std::string dir = FreshDir("immutableextents");
  auto writer = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(writer->SaveCatalog(dir).ok());
  const std::string base1_values = ReadAll(SegmentPath(dir, kCatalogValuesStem));

  // A different engine saving to the same directory cannot reuse extents
  // (its dict numbering is its own) — it must full-rewrite under a NEW
  // base, never in place over segments generation 1 still references.
  auto other = MakeEngineWithSmallLake(1);
  auto resave = other->SaveCatalog(dir);
  ASSERT_TRUE(resave.ok()) << resave.status().ToString();
  EXPECT_FALSE(resave->incremental);
  EXPECT_EQ(resave->generation, 2u);
  EXPECT_EQ(resave->base, 2u);
  EXPECT_TRUE(
      std::filesystem::exists(SegmentPath(dir, kCatalogValuesStem, 2)));
  // Generation 1's segments were untouched while it was retained.
  EXPECT_EQ(ReadAll(SegmentPath(dir, kCatalogValuesStem, 1)), base1_values);
}

TEST(CatalogGenerationTest, MissingCurrentIsTypedError) {
  const std::string dir = FreshDir("nocurrent");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::filesystem::remove(PathOf(dir, kCatalogCurrentFile));
  auto reader = MakeEngine(1);
  auto opened = reader->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
  EXPECT_EQ(reader->NumTables(), 0u);
  EXPECT_EQ(CatalogCurrentGeneration(dir).code(), ErrorCode::kIoError);
}

TEST(CatalogGenerationTest, GarbageCurrentIsTypedError) {
  const std::string dir = FreshDir("badcurrent");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  for (const char* garbage : {"", "bogus", "LFCUR1 \n", "LFCUR1 12x\n",
                              "LFCUR1 0\n"}) {
    SCOPED_TRACE("CURRENT=\"" + std::string(garbage) + "\"");
    WriteAll(PathOf(dir, kCatalogCurrentFile), garbage);
    EXPECT_EQ(MakeEngine(1)->OpenCatalog(dir).code(), ErrorCode::kIoError);
  }
  // A CURRENT pointing at a generation with no manifest is equally typed.
  WriteAll(PathOf(dir, kCatalogCurrentFile), "LFCUR1 999\n");
  EXPECT_EQ(MakeEngine(1)->OpenCatalog(dir).code(), ErrorCode::kIoError);
}

// ------------------------------------------------------ corruption matrix

TEST(CatalogCorruptionTest, MissingDirectoryIsIoError) {
  auto engine = MakeEngine(1);
  auto opened = engine->OpenCatalog(FreshDir("missing"));
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
  EXPECT_EQ(engine->catalog_stats().open_failures, 1u);
  // The engine stays fully usable — degrade to a cold rebuild.
  for (auto& t : SmallLake()) {
    EXPECT_TRUE(engine->RegisterTable(t.name(), t).ok());
  }
  EXPECT_TRUE(engine->Integrate({"cities", "rates"}).ok());
}

TEST(CatalogCorruptionTest, TruncatedManifestIsIoError) {
  const std::string dir = FreshDir("truncmanifest");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  WriteAll(ManifestPath(dir), manifest.substr(0, 10));

  auto opened = MakeEngine(1)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
}

TEST(CatalogCorruptionTest, BadMagicIsInvalidArgument) {
  const std::string dir = FreshDir("badmagic");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  manifest[0] = 'X';
  FixupManifestChecksum(&manifest);  // semantic error, not integrity error
  WriteAll(ManifestPath(dir), manifest);

  auto opened = MakeEngine(1)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kInvalidArgument);
}

TEST(CatalogCorruptionTest, FormatVersionSkewIsInvalidArgument) {
  const std::string dir = FreshDir("verskew");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  const uint32_t future_version = kCatalogFormatVersion + 7;
  std::memcpy(&manifest[sizeof(kCatalogMagic)], &future_version,
              sizeof(future_version));
  FixupManifestChecksum(&manifest);
  WriteAll(ManifestPath(dir), manifest);

  auto opened = MakeEngine(1)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("version"), std::string::npos);
}

TEST(CatalogCorruptionTest, BitFlipInManifestIsIoError) {
  const std::string dir = FreshDir("bitflip");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  manifest[manifest.size() / 2] ^= 0x40;  // body flip, checksum NOT fixed
  WriteAll(ManifestPath(dir), manifest);

  auto opened = MakeEngine(1)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
}

TEST(CatalogCorruptionTest, TruncatedSegmentIsIoError) {
  const std::string dir = FreshDir("truncseg");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  for (const char* stem : {kCatalogValuesStem, kCatalogHashesStem,
                           kCatalogTablesStem, kCatalogSketchesStem}) {
    SCOPED_TRACE(stem);
    const std::string path = SegmentPath(dir, stem);
    const std::string bytes = ReadAll(path);
    ASSERT_GT(bytes.size(), 4u);
    WriteAll(path, bytes.substr(0, bytes.size() / 2));

    auto reader = MakeEngine(1);
    auto opened = reader->OpenCatalog(dir);
    EXPECT_EQ(opened.code(), ErrorCode::kIoError);
    // Nothing half-loaded: the registry is untouched after the failure.
    EXPECT_EQ(reader->NumTables(), 0u);
    WriteAll(path, bytes);  // restore for the next round
  }
  // With every segment restored, the catalog opens again.
  EXPECT_TRUE(MakeEngine(1)->OpenCatalog(dir).ok());
}

TEST(CatalogCorruptionTest, SegmentBitFlipIsIoError) {
  const std::string dir = FreshDir("segflip");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string bytes = ReadAll(SegmentPath(dir, kCatalogValuesStem));
  bytes[bytes.size() / 3] ^= 0x01;
  WriteAll(SegmentPath(dir, kCatalogValuesStem), bytes);

  auto opened = MakeEngine(1)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
}

/// Bytes past the committed prefix are an aborted append, not corruption:
/// the prefix checksum ignores them and the catalog still opens.
TEST(CatalogCorruptionTest, TrailingGarbageAfterCommittedPrefixIsIgnored) {
  const std::string dir = FreshDir("trailing");
  auto writer = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(writer->SaveCatalog(dir).ok());
  for (const char* stem : {kCatalogValuesStem, kCatalogHashesStem,
                           kCatalogTablesStem, kCatalogSketchesStem}) {
    std::ofstream out(SegmentPath(dir, stem),
                      std::ios::binary | std::ios::app);
    out << "crashed-append-tail";
  }
  auto reader = MakeEngine(1);
  auto opened = reader->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_loaded, 3u);
}

TEST(CatalogCorruptionTest, DiscoveryParamMismatchIsInvalidArgument) {
  const std::string dir = FreshDir("parammismatch");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());

  EngineOptions opts;
  opts.discovery.SetSignatureSize(32).SetBanding(8, 4);
  auto reader = LakeEngine::Create(opts);
  ASSERT_TRUE(reader.ok());
  auto opened = (*reader)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kInvalidArgument);
}

/// Byte offset of a segment's {size, checksum} pair in the manifest: magic,
/// format version, endianness probe, then seven u64 header fields (
/// generation, base, signature size, bands, rows per band, seed, value
/// count) precede the four segment pairs.
size_t ManifestSegmentOffset(size_t segment_index) {
  return sizeof(kCatalogMagic) + 2 * sizeof(uint32_t) +
         7 * sizeof(uint64_t) + segment_index * 2 * sizeof(uint64_t);
}

/// Writes segment `index` (0 = values, 1 = hashes) and records its new
/// size and checksum in the manifest, so the corruption passes every
/// integrity check and only the content checks can catch it.
void WriteSegmentWithValidChecksum(const std::string& dir, size_t index,
                                   const std::string& bytes) {
  const char* stem = index == 0 ? kCatalogValuesStem : kCatalogHashesStem;
  WriteAll(SegmentPath(dir, stem), bytes);
  std::string manifest = ReadAll(ManifestPath(dir));
  const uint64_t size = bytes.size();
  const uint64_t sum = CatalogSegmentChecksum(bytes.data(), bytes.size());
  std::memcpy(&manifest[ManifestSegmentOffset(index)], &size, sizeof(size));
  std::memcpy(&manifest[ManifestSegmentOffset(index) + sizeof(size)], &sum,
              sizeof(sum));
  FixupManifestChecksum(&manifest);
  WriteAll(ManifestPath(dir), manifest);
}

/// One record of the values segment: where it starts, its size in bytes,
/// and its type tag.
struct ValueRecord {
  size_t offset = 0;
  size_t size = 0;
  uint8_t tag = 0;
};

std::vector<ValueRecord> ValueRecords(const std::string& bytes) {
  std::vector<ValueRecord> records;
  size_t off = 0;
  while (off < bytes.size()) {
    ValueRecord rec;
    rec.offset = off;
    rec.tag = static_cast<uint8_t>(bytes[off]);
    size_t payload = 0;
    switch (static_cast<ValueType>(rec.tag)) {
      case ValueType::kString: {
        uint32_t n = 0;
        std::memcpy(&n, &bytes[off + 1], sizeof(n));
        payload = sizeof(n) + n;
        break;
      }
      case ValueType::kInt64:
      case ValueType::kDouble:
        payload = sizeof(uint64_t);
        break;
      default:
        payload = 1;
        break;
    }
    rec.size = 1 + payload;
    records.push_back(rec);
    off += rec.size;
  }
  return records;
}

/// Corruption that the segment checksums cannot see (the checksums were
/// recomputed over the corrupt bytes) must still fail the fresh-engine
/// bulk dictionary restore with kIoError, leave the registry and discovery
/// untouched, and roll the dictionary back to empty, so a cold rebuild in
/// that engine matches a fresh engine exactly.
TEST(CatalogCorruptionTest, CorruptValuesBehindValidChecksumsAreIoError) {
  const std::string dir = FreshDir("bulkcorrupt");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  const std::string manifest = ReadAll(ManifestPath(dir));
  const std::string values = ReadAll(SegmentPath(dir, kCatalogValuesStem));
  const std::string hashes = ReadAll(SegmentPath(dir, kCatalogHashesStem));
  const std::vector<ValueRecord> records = ValueRecords(values);
  // Two string records of equal size, so one can overwrite the other in
  // place.
  size_t first = records.size(), second = records.size();
  for (size_t i = 0; i < records.size() && second == records.size(); ++i) {
    for (size_t j = i + 1; j < records.size(); ++j) {
      if (records[i].tag == static_cast<uint8_t>(ValueType::kString) &&
          records[j].tag == records[i].tag &&
          records[j].size == records[i].size) {
        first = i;
        second = j;
        break;
      }
    }
  }
  ASSERT_LT(second, records.size());

  struct Case {
    const char* what;
    std::string values, hashes;
    const char* error;  ///< expected in the status message
  };
  std::vector<Case> cases;
  {
    std::string bad = values;
    bad[0] = static_cast<char>(0x7F);  // no ValueType has this tag
    cases.push_back({"unknown type tag", bad, hashes, "unknown type tag"});
  }
  {
    std::string bad = values;
    const uint32_t overrun = 0x7FFFFFFF;
    std::memcpy(&bad[records[first].offset + 1], &overrun, sizeof(overrun));
    cases.push_back(
        {"string length overruns the segment", bad, hashes, "truncated"});
  }
  {
    // Code second+1 repeats code first+1's value, under its content hash.
    std::string bad = values;
    bad.replace(records[second].offset, records[second].size, values,
                records[first].offset, records[first].size);
    std::string bad_hashes = hashes;
    bad_hashes.replace(second * sizeof(uint64_t), sizeof(uint64_t), hashes,
                       first * sizeof(uint64_t), sizeof(uint64_t));
    cases.push_back(
        {"duplicate value", bad, bad_hashes, "under an earlier code"});
  }

  for (const Case& c : cases) {
    for (size_t threads : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE(std::string(c.what) +
                   ", threads=" + std::to_string(threads));
      WriteSegmentWithValidChecksum(dir, 0, c.values);
      WriteSegmentWithValidChecksum(dir, 1, c.hashes);
      auto engine = MakeEngine(threads);
      auto opened = engine->OpenCatalog(dir);
      EXPECT_EQ(opened.code(), ErrorCode::kIoError);
      EXPECT_NE(opened.status().message().find(c.error), std::string::npos)
          << opened.status().ToString();
      EXPECT_EQ(engine->NumTables(), 0u);
      EXPECT_EQ(engine->discovery_index().num_tables(), 0u);
      EXPECT_EQ(engine->session_dict().NumDistinct(), 0u);
      EXPECT_EQ(engine->session_dict().stats().values_interned, 0u);

      auto fresh = MakeEngineWithSmallLake(threads);
      for (auto& t : SmallLake()) {
        ASSERT_TRUE(engine->RegisterTable(t.name(), t).ok());
      }
      // Pooled registration interns columns concurrently, so code numbers
      // are schedule-dependent there; the serial engine must match exactly.
      EXPECT_EQ(engine->session_dict().NumDistinct(),
                fresh->session_dict().NumDistinct());
      if (threads == 1) ExpectSameDictionary(*engine, *fresh);
      ExpectSameLake(engine.get(), fresh.get(), "cities");
    }
  }
  WriteAll(SegmentPath(dir, kCatalogValuesStem), values);
  WriteAll(SegmentPath(dir, kCatalogHashesStem), hashes);
  WriteAll(ManifestPath(dir), manifest);
  EXPECT_TRUE(MakeEngine(2)->OpenCatalog(dir).ok());
}

// ----------------------------------------------------------- v3 format

/// Offset of the value-checkpoint count in the manifest: right after the
/// four segment pairs. The checkpoint offsets (u64 each) follow it.
size_t ManifestCheckpointOffset() { return ManifestSegmentOffset(4); }

uint64_t ManifestU64(const std::string& manifest, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, &manifest[offset], sizeof(v));
  return v;
}

const char* const kSegmentStems[] = {kCatalogValuesStem, kCatalogHashesStem,
                                     kCatalogTablesStem, kCatalogSketchesStem};

/// A table of `rows` values never seen before (unique strings of varied
/// length), plus a low-cardinality column, so every segment grows.
Table FreshValuesTable(const std::string& name, size_t rows,
                       std::mt19937_64* rng) {
  std::vector<std::vector<Value>> cells;
  cells.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    cells.push_back({S(name + "_" + std::to_string(r) +
                       std::string((*rng)() % 24, 'x')),
                     S("country_" + std::to_string((*rng)() % 40))});
  }
  auto table = Table::FromRows(name, {"City", "Country"}, std::move(cells));
  EXPECT_TRUE(table.ok());
  return std::move(table).value();
}

/// Flips one bit of `path` at `offset`, expects a fresh engine's open to
/// fail with kIoError and the registry untouched, then restores the byte.
void ExpectBitFlipIsIoError(const std::string& dir, const std::string& path,
                            size_t offset, const char* what) {
  SCOPED_TRACE(what);
  const std::string original = ReadAll(path);
  ASSERT_LT(offset, original.size());
  std::string flipped = original;
  flipped[offset] ^= 0x10;
  WriteAll(path, flipped);
  auto reader = MakeEngine(2);
  auto opened = reader->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
  EXPECT_EQ(reader->NumTables(), 0u);
  EXPECT_EQ(reader->session_dict().NumDistinct(), 0u);
  WriteAll(path, original);
}

/// Random incremental saves whose appends cross 1 MiB checksum blocks.
/// After each one the manifest's checksums equal a from-scratch recompute
/// over the file prefixes (continuing the tail block's hash state is
/// exact), a fresh engine opens the catalog with nothing re-sketched and
/// the writer's top-k, and single-bit flips in an interior block, in the
/// tail block and in a persisted checkpoint each fail the open with
/// kIoError. Every fourth round the reopened engine becomes the writer.
TEST(CatalogFormatTest, RandomIncrementalSavesKeepBlockChecksumsExact) {
  const std::string dir = FreshDir("v3random");
  std::mt19937_64 rng(0x5E6B10C5);
  auto writer = MakeEngineWithSmallLake(2);
  // The values segment starts past one block, so every round has an
  // interior block to flip.
  ASSERT_TRUE(writer
                  ->RegisterTable("seed",
                                  FreshValuesTable("seed", 50000, &rng))
                  .ok());
  auto first = writer->SaveCatalog(dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::vector<std::string> added;
  size_t crossings = 0;
  for (int round = 0; round < 22; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string before =
        ReadAll(ManifestPath(dir, writer->catalog_stats().generation));
    if (!added.empty() && rng() % 3 == 0) {
      const size_t victim = rng() % added.size();
      ASSERT_TRUE(writer->Unregister(added[victim]).ok());
      added.erase(added.begin() + static_cast<ptrdiff_t>(victim));
    }
    const std::string name = "t" + std::to_string(round);
    ASSERT_TRUE(writer
                    ->RegisterTable(name, FreshValuesTable(
                                              name, 1000 + rng() % 8000, &rng))
                    .ok());
    added.push_back(name);
    auto saved = writer->SaveCatalog(dir);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    ASSERT_TRUE(saved->incremental);
    ASSERT_EQ(saved->base, 1u);

    const std::string manifest_path = ManifestPath(dir, saved->generation);
    const std::string manifest = ReadAll(manifest_path);
    for (size_t i = 0; i < 4; ++i) {
      SCOPED_TRACE(kSegmentStems[i]);
      const uint64_t size = ManifestU64(manifest, ManifestSegmentOffset(i));
      const uint64_t old_size = ManifestU64(before, ManifestSegmentOffset(i));
      if (size / kCatalogChecksumBlock != old_size / kCatalogChecksumBlock) {
        ++crossings;
      }
      const std::string bytes = ReadAll(SegmentPath(dir, kSegmentStems[i]));
      ASSERT_LE(size, bytes.size());
      EXPECT_EQ(ManifestU64(manifest, ManifestSegmentOffset(i) + 8),
                CatalogSegmentChecksum(bytes.data(), size));
    }

    auto reader = MakeEngine(2);
    auto opened = reader->OpenCatalog(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->columns_resketched, 0u);
    EXPECT_EQ(opened->tables_loaded, writer->NumTables());
    auto want = writer->DiscoverUnionable(name, 4);
    auto got = reader->DiscoverUnionable(name, 4);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameCandidates(*got, *want);

    const std::string values_path = SegmentPath(dir, kCatalogValuesStem);
    const uint64_t values_size =
        ManifestU64(manifest, ManifestSegmentOffset(0));
    const uint64_t tail_start =
        (values_size - 1) / kCatalogChecksumBlock * kCatalogChecksumBlock;
    ASSERT_GT(tail_start, 0u);
    ExpectBitFlipIsIoError(dir, values_path, rng() % tail_start,
                           "interior block");
    ExpectBitFlipIsIoError(dir, values_path,
                           tail_start + rng() % (values_size - tail_start),
                           "tail block");
    const uint64_t checkpoints =
        ManifestU64(manifest, ManifestCheckpointOffset());
    ASSERT_GT(checkpoints, 1u);
    ExpectBitFlipIsIoError(dir, manifest_path,
                           ManifestCheckpointOffset() + 8 +
                               8 * (1 + rng() % (checkpoints - 1)) +
                               rng() % 8,
                           "persisted checkpoint");
    // Now and then the reopened engine takes over as the writer, so later
    // appends continue from the hash state an open computed.
    if (round % 4 == 3) writer = std::move(reader);
  }
  EXPECT_GE(crossings, 2u);
}

/// A catalog whose single column holds `count` distinct values, so its
/// manifest carries count / kCatalogValueCheckpoint + 1 checkpoints.
std::unique_ptr<LakeEngine> MakeEngineWithDistinctValues(size_t count) {
  std::vector<std::vector<Value>> cells;
  for (size_t i = 0; i < count; ++i) {
    cells.push_back({S("v" + std::to_string(i) + std::string(i % 7, 'y'))});
  }
  auto table = Table::FromRows("wide", {"Value"}, std::move(cells));
  EXPECT_TRUE(table.ok());
  auto engine = MakeEngine(1);
  EXPECT_TRUE(engine->RegisterTable("wide", std::move(table).value()).ok());
  return engine;
}

/// Checkpoints that disagree with the record boundaries — behind a valid
/// manifest checksum, so only the restore's own checks can see them —
/// fail the open with kIoError and leave the dictionary empty, at every
/// pool size.
TEST(CatalogFormatTest, MisalignedCheckpointsAreIoError) {
  const std::string dir = FreshDir("v3checkpoints");
  ASSERT_TRUE(MakeEngineWithDistinctValues(3000)->SaveCatalog(dir).ok());
  const std::string manifest = ReadAll(ManifestPath(dir));
  const std::string values = ReadAll(SegmentPath(dir, kCatalogValuesStem));
  const std::vector<ValueRecord> records = ValueRecords(values);
  ASSERT_EQ(records.size(), 3000u);
  ASSERT_EQ(ManifestU64(manifest, ManifestCheckpointOffset()), 3u);
  // Checkpoint k records the offset of code k * 1024 (records[code - 1]).
  ASSERT_EQ(ManifestU64(manifest, ManifestCheckpointOffset() + 8 * 2),
            records[1023].offset);

  struct Case {
    const char* what;
    size_t checkpoint;
    uint64_t offset;
  };
  const Case cases[] = {
      {"checkpoint points mid-record", 1, records[1023].offset + 1},
      {"record run overshoots its next checkpoint", 1, records[1022].offset},
      {"last checkpoint points mid-record", 2, records[2047].offset + 2},
      {"checkpoint past the segment end", 2, values.size() + 8},
  };
  for (const Case& c : cases) {
    for (size_t threads : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE(std::string(c.what) +
                   ", threads=" + std::to_string(threads));
      std::string bad = manifest;
      std::memcpy(&bad[ManifestCheckpointOffset() + 8 * (1 + c.checkpoint)],
                  &c.offset, sizeof(c.offset));
      FixupManifestChecksum(&bad);
      WriteAll(ManifestPath(dir), bad);
      auto engine = MakeEngine(threads);
      auto opened = engine->OpenCatalog(dir);
      EXPECT_EQ(opened.code(), ErrorCode::kIoError);
      EXPECT_NE(opened.status().message().find("checkpoint"),
                std::string::npos)
          << opened.status().ToString();
      EXPECT_EQ(engine->NumTables(), 0u);
      EXPECT_EQ(engine->session_dict().NumDistinct(), 0u);
    }
  }
  WriteAll(ManifestPath(dir), manifest);
  EXPECT_TRUE(MakeEngine(2)->OpenCatalog(dir).ok());
}

/// No v2 reader is kept: a v2 manifest is version skew, counted as an open
/// failure, and the engine rebuilds cold.
TEST(CatalogFormatTest, V2ManifestIsVersionSkew) {
  const std::string dir = FreshDir("v2manifest");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  const uint32_t v2 = 2;
  std::memcpy(&manifest[sizeof(kCatalogMagic)], &v2, sizeof(v2));
  FixupManifestChecksum(&manifest);
  WriteAll(ManifestPath(dir), manifest);

  auto engine = MakeEngine(2);
  auto opened = engine->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(engine->catalog_stats().open_failures, 1u);
  EXPECT_EQ(engine->NumTables(), 0u);
  for (auto& t : SmallLake()) {
    ASSERT_TRUE(engine->RegisterTable(t.name(), t).ok());
  }
  EXPECT_TRUE(engine->Integrate({"cities", "rates"}).ok());
}

// ---------------------------------------------------------- golden hashes

/// Locked constants: the catalog persists ValueDict::HashOf side tables,
/// MinHash signatures, and LSH band keys as raw bytes, so these functions
/// changing silently would make every existing catalog decode into a
/// *different* dictionary (equal values under different codes — wrong FD
/// joins, wrong sketches). A change here must bump kCatalogFormatVersion.
TEST(CatalogGoldenTest, ValueHashesAreStable) {
  EXPECT_EQ(Value::String("alice").Hash(), 17663532886374439575ull);
  EXPECT_EQ(Value::Int(42).Hash(), 1564134752356013387ull);
  EXPECT_EQ(Value::Double(2.5).Hash(), 11233389734505888455ull);
  EXPECT_EQ(Value::Bool(true).Hash(), 3451009034337926933ull);
  // ±0.0 must stay collapsed: both encodings intern to one dict entry.
  EXPECT_EQ(Value::Double(-0.0).Hash(), 16525467367716908143ull);
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
}

/// The segment checksum every v3 manifest records: XXH64 per 1 MiB block,
/// folded by XXH64 over the digests seeded with the size. Pinned over a
/// fixed pattern spanning three whole blocks and a short tail.
TEST(CatalogGoldenTest, SegmentChecksumIsStable) {
  ASSERT_EQ(kCatalogChecksumBlock, uint64_t{1} << 20);
  std::string bytes(3 * kCatalogChecksumBlock + 17, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131) ^ (i >> 13));
  }
  std::vector<uint64_t> digests;
  for (size_t off = 0; off < bytes.size(); off += kCatalogChecksumBlock) {
    digests.push_back(Xxh64(
        bytes.data() + off,
        std::min<size_t>(kCatalogChecksumBlock, bytes.size() - off)));
  }
  ASSERT_EQ(digests.size(), 4u);
  const uint64_t checksum = CatalogSegmentChecksum(bytes.data(), bytes.size());
  EXPECT_EQ(checksum, Xxh64(digests.data(), digests.size() * sizeof(uint64_t),
                            bytes.size()));
  EXPECT_EQ(checksum, 4930124931424307866ull);
  EXPECT_EQ(CatalogSegmentChecksum(nullptr, 0), Xxh64(nullptr, 0, 0));
}

TEST(CatalogGoldenTest, DictHashOfMatchesValueHash) {
  ValueDict dict;
  for (const Value& v :
       {Value::String("alice"), Value::Int(42), Value::Double(2.5)}) {
    const uint32_t code = dict.Intern(v);
    EXPECT_EQ(dict.HashOf(code), v.Hash());
  }
}

TEST(CatalogGoldenTest, MinHashSignatureBytesAreStable) {
  std::vector<Value> vals;
  for (int i = 0; i < 16; ++i) vals.push_back(S("v" + std::to_string(i)));
  vals.push_back(Value::Int(7));
  vals.push_back(Value::Null());
  SketchScratch scratch;
  ColumnSketch s =
      BuildColumnSketchFromValues("col", vals, SketchOptions(), &scratch);
  ASSERT_EQ(s.signature.size(), 64u);
  EXPECT_EQ(s.signature[0], 503156245670146792ull);
  EXPECT_EQ(s.signature[1], 239188940156540417ull);
  EXPECT_EQ(s.signature[2], 433627304758821863ull);
  EXPECT_EQ(s.signature[3], 160883120787117679ull);
}

TEST(CatalogGoldenTest, LshBandKeysAreStable) {
  std::vector<Value> vals;
  for (int i = 0; i < 16; ++i) vals.push_back(S("v" + std::to_string(i)));
  vals.push_back(Value::Int(7));
  vals.push_back(Value::Null());
  SketchScratch scratch;
  ColumnSketch s =
      BuildColumnSketchFromValues("col", vals, SketchOptions(), &scratch);
  LshIndex lsh(16, 4);
  std::vector<uint64_t> keys;
  lsh.ComputeBandKeys(s.signature, &keys);
  ASSERT_EQ(keys.size(), 16u);
  EXPECT_EQ(keys[0], 13941073475411058532ull);
  EXPECT_EQ(keys[15], 17224553595041193297ull);
  // AddWithKeys(precomputed) must land in exactly the buckets Add(signature)
  // would — the warm-load LSH rebuild relies on it.
  LshIndex a(16, 4), b(16, 4);
  a.Add(1, s.signature);
  b.AddWithKeys(1, keys);
  EXPECT_EQ(a.Query(s.signature), b.Query(s.signature));
}

// ----------------------------------------------------------- fingerprints

TEST(CatalogFingerprintTest, ContentKeyedNotCodeKeyed) {
  auto lake = SmallLake();
  // Two dictionaries interning in different orders assign different codes,
  // but the fingerprint hangs off content hashes — it must agree.
  SessionDict forward, backward;
  auto warm = Table::FromRows("warm", {"City"},
                              {{S("Quito")}, {S("Berlin")}, {S("Xi'an")}});
  ASSERT_TRUE(warm.ok());
  for (size_t c = 0; c < warm->NumColumns(); ++c) {
    backward.ColumnCodes(*warm, c);  // skew backward's code numbering
  }
  const uint64_t fp_fwd = CatalogTableFingerprint(lake[0], &forward);
  const uint64_t fp_bwd = CatalogTableFingerprint(lake[0], &backward);
  EXPECT_EQ(fp_fwd, fp_bwd);
  // Different content ⇒ different fingerprint.
  EXPECT_NE(CatalogTableFingerprint(lake[0], &forward),
            CatalogTableFingerprint(lake[1], &forward));
}

// ------------------------------------------------------------- peak RSS

TEST(CatalogStatsTest, IntegrateReportsPeakRss) {
  auto engine = MakeEngineWithSmallLake(1);
  auto result = engine->Integrate({"cities", "rates"});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->report.fd_stats.peak_rss_bytes, 0u);
  // getrusage's high-water mark is monotonic within a process.
  auto again = engine->Integrate({"cities", "mayors"});
  ASSERT_TRUE(again.ok());
  EXPECT_GE(again->report.fd_stats.peak_rss_bytes,
            result->report.fd_stats.peak_rss_bytes);
}

TEST(CatalogStatsTest, EngineAccumulatesCatalogCounters) {
  const std::string dir = FreshDir("stats");
  auto engine = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(engine->SaveCatalog(dir).ok());
  ASSERT_TRUE(engine->SaveCatalog(dir).ok());
  const CatalogStats s = engine->catalog_stats();
  EXPECT_EQ(s.saves, 2u);
  EXPECT_EQ(s.tables_written, 3u);  // second save reused everything
  EXPECT_EQ(s.tables_reused, 3u);
  EXPECT_GT(s.bytes_written, 0u);
  EXPECT_EQ(s.generation, 2u);

  auto reader = MakeEngine(1);
  ASSERT_TRUE(reader->OpenCatalog(dir).ok());
  const CatalogStats r = reader->catalog_stats();
  EXPECT_EQ(r.opens, 1u);
  EXPECT_EQ(r.open_failures, 0u);
  EXPECT_EQ(r.tables_loaded, 3u);
  EXPECT_GT(r.mmap_bytes, 0u);
  EXPECT_EQ(r.generation, 2u);
  EXPECT_EQ(r.refreshes, 0u);
}

}  // namespace
}  // namespace lakefuzz
