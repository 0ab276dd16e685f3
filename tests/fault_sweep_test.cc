// The headline robustness harness: for every k, inject a fault at the
// k-th I/O operation during each end-to-end scenario (table write,
// archive attach, raster ingest, NOA chain run) and require that the
// system (a) never crashes, (b) surfaces a clean error Status, and
// (c) recovers to a consistent state once the fault clears — for
// crash-mode write faults, the file on disk is always the complete old
// or complete new version, never a hybrid.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "eo/scene.h"
#include "io/fault_injection.h"
#include "io/filesystem.h"
#include "storage/catalog.h"
#include "storage/persistence.h"
#include "sweep_harness.h"
#include "vault/formats.h"
#include "vault/vault.h"

namespace teleios {
namespace {

class FaultSweepTest : public FaultyFileSystemTest {
 protected:
  static storage::Table MakeTable(int64_t tag) {
    storage::Table t{storage::Schema({{"id", storage::ColumnType::kInt64},
                                      {"name", storage::ColumnType::kString}})};
    for (int64_t i = 0; i < 50; ++i) {
      t.column(0).AppendInt64(i + tag);
      t.column(1).AppendString("row-" + std::to_string(i + tag));
    }
    return t;
  }

  static vault::TerRaster MakeRaster(const std::string& name) {
    vault::TerRaster r;
    r.name = name;
    r.satellite = "Meteosat-9";
    r.sensor = "SEVIRI";
    r.width = 16;
    r.height = 12;
    r.acquisition_time = 1187997600;
    r.transform = {21.0, 38.5, 0.01, -0.01, 0, 0};
    r.band_names = {"IR039", "IR108"};
    r.bands.assign(2, std::vector<double>(16 * 12, 300.0));
    return r;
  }
};

// Crash at every possible I/O op during a checksummed table write: the
// previous version must stay intact and loadable.
TEST_F(FaultSweepTest, TeltWriteSweepNeverLeavesHybrid) {
  const std::string path = Path("t.telt");
  ASSERT_TRUE(storage::WriteTable(MakeTable(0), path).ok());
  uint64_t n = SweepEveryOp(
      "telt write", ArmAt(faulty_.get(), io::FaultSpec{.crash = true}),
      [&] {
        EXPECT_TRUE(storage::WriteTable(MakeTable(1000), path).ok());
        uint64_t ops = faulty_->ops();
        EXPECT_TRUE(storage::WriteTable(MakeTable(0), path).ok());
        return ops;
      },
      [&](uint64_t) {
        Status st = storage::WriteTable(MakeTable(1000), path);
        faulty_->Disarm();
        auto back = storage::ReadTable(path);
        ASSERT_TRUE(back.ok()) << back.status().ToString();
        int64_t first = back->column(0).GetInt64(0);
        if (st.ok()) {
          EXPECT_EQ(first, 1000);
        } else {
          // A fault at or after the rename (the post-rename directory
          // fsync) can leave the new file with a non-OK status; either
          // complete version is consistent, a hybrid is not.
          EXPECT_TRUE(first == 0 || first == 1000);
        }
        if (first != 0 || st.ok()) {
          ASSERT_TRUE(storage::WriteTable(MakeTable(0), path).ok());
        }
      });
  EXPECT_GT(n, 3u);
}

// Read-side bit-flip sweep over `read`: every single-bit corruption of
// any read is detected (DataLoss/ParseError), never silently parsed.
// `seed_at(k)` places the flip of fault point k.
template <typename Read, typename SeedAt>
void BitFlipSweep(io::FaultInjectingFileSystem* faulty,
                  const std::string& name, Read read, SeedAt seed_at) {
  uint64_t n = SweepEveryOp(
      name,
      [&](uint64_t k) {
        faulty->Arm({.kind = io::FaultKind::kBitFlip,
                     .inject_at = k,
                     .reads_only = true,
                     .seed = seed_at(k)});
      },
      [&] {
        EXPECT_TRUE(read().ok());
        return faulty->ops();
      },
      [&](uint64_t) {
        auto r = read();
        uint64_t flipped = faulty->bits_flipped();
        faulty->Disarm();
        if (r.ok()) {
          // Only tolerable when the fault landed on a zero-byte EOF probe
          // and so had nothing to corrupt.
          EXPECT_EQ(flipped, 0u) << "flip was not detected";
          return;
        }
        EXPECT_TRUE(r.status().code() == StatusCode::kDataLoss ||
                    r.status().code() == StatusCode::kParseError)
            << r.status().ToString();
      });
  EXPECT_GT(n, 0u);
}

TEST_F(FaultSweepTest, TeltReadBitFlipSweepAlwaysDetected) {
  const std::string path = Path("t.telt");
  ASSERT_TRUE(storage::WriteTable(MakeTable(0), path).ok());
  for (uint64_t seed : {1u, 99u}) {
    BitFlipSweep(
        faulty_.get(), "telt read bit-flip seed " + std::to_string(seed),
        [&] { return storage::ReadTable(path); },
        [seed](uint64_t) { return seed; });
  }
}

// Crash sweep over WriteTer + bit-flip sweep over ReadTer.
TEST_F(FaultSweepTest, TerWriteAndReadSweep) {
  const std::string path = Path("scene.ter");
  ASSERT_TRUE(vault::WriteTer(MakeRaster("old"), path).ok());
  SweepEveryOp(
      "ter write", ArmAt(faulty_.get(), io::FaultSpec{.crash = true}),
      [&] {
        EXPECT_TRUE(vault::WriteTer(MakeRaster("new"), path).ok());
        uint64_t ops = faulty_->ops();
        EXPECT_TRUE(vault::WriteTer(MakeRaster("old"), path).ok());
        return ops;
      },
      [&](uint64_t) {
        Status st = vault::WriteTer(MakeRaster("new"), path);
        faulty_->Disarm();
        auto back = vault::ReadTer(path);
        ASSERT_TRUE(back.ok());
        if (st.ok()) {
          EXPECT_EQ(back->name, "new");
        } else {
          EXPECT_TRUE(back->name == "old" || back->name == "new");
        }
        if (back->name == "new") {
          ASSERT_TRUE(vault::WriteTer(MakeRaster("old"), path).ok());
        }
      });
  BitFlipSweep(
      faulty_.get(), "ter read bit-flip", [&] { return vault::ReadTer(path); },
      [](uint64_t k) { return 7 * k + 1; });
}

// Crash at every possible I/O op while replacing a catalog snapshot
// whose table SET changed between saves: the recovered snapshot must be
// entirely the old or entirely the new one. (Regression: table files
// used to be overwritten in place, so a crash before the manifest
// rename could leave the old MANIFEST pointing at new-generation data —
// all checksums pass, wrong tables load.)
TEST_F(FaultSweepTest, CatalogSnapshotSweepNeverMixesGenerations) {
  const std::string dir = Path("snap");
  storage::Catalog old_cat;
  ASSERT_TRUE(old_cat.CreateTable(
      "alpha", std::make_shared<storage::Table>(MakeTable(0))).ok());
  ASSERT_TRUE(old_cat.CreateTable(
      "beta", std::make_shared<storage::Table>(MakeTable(100))).ok());
  storage::Catalog new_cat;
  ASSERT_TRUE(new_cat.CreateTable(
      "beta", std::make_shared<storage::Table>(MakeTable(1000))).ok());
  ASSERT_TRUE(new_cat.CreateTable(
      "zeta", std::make_shared<storage::Table>(MakeTable(2000))).ok());
  ASSERT_TRUE(storage::SaveCatalog(old_cat, dir).ok());

  auto first_id = [](const storage::Catalog& c, const std::string& name) {
    auto t = c.GetTable(name);
    return t.ok() ? (*t)->column(0).GetInt64(0) : int64_t{-1};
  };
  uint64_t n = SweepEveryOp(
      "catalog snapshot", ArmAt(faulty_.get(), io::FaultSpec{.crash = true}),
      [&] {
        EXPECT_TRUE(storage::SaveCatalog(new_cat, dir).ok());
        uint64_t ops = faulty_->ops();
        EXPECT_TRUE(storage::SaveCatalog(old_cat, dir).ok());
        return ops;
      },
      [&](uint64_t) {
        Status st = storage::SaveCatalog(new_cat, dir);
        faulty_->Disarm();
        storage::Catalog loaded;
        auto n = storage::LoadCatalog(dir, &loaded);
        ASSERT_TRUE(n.ok()) << n.status().ToString();
        ASSERT_EQ(*n, 2u);
        bool is_old = loaded.HasTable("alpha");
        if (st.ok()) {
          EXPECT_FALSE(is_old);
        }
        if (is_old) {
          EXPECT_EQ(first_id(loaded, "alpha"), 0);
          EXPECT_EQ(first_id(loaded, "beta"), 100);
        } else {
          EXPECT_EQ(first_id(loaded, "beta"), 1000);
          EXPECT_EQ(first_id(loaded, "zeta"), 2000);
          ASSERT_TRUE(storage::SaveCatalog(old_cat, dir).ok());
        }
      });
  EXPECT_GT(n, 6u);
}

// Fault at every op during an archive attach + full ingest: clean Status,
// and once the fault clears the same vault instance can still serve what
// it attached (retry/quarantine must not wedge it).
TEST_F(FaultSweepTest, AttachAndIngestSweepSurvives) {
  ASSERT_TRUE(vault::WriteTer(MakeRaster("a"), Path("a.ter")).ok());
  ASSERT_TRUE(vault::WriteTer(MakeRaster("b"), Path("b.ter")).ok());
  uint64_t n = SweepEveryOp(
      "attach + ingest", ArmAt(faulty_.get(), io::FaultSpec{}),
      [&] {
        {
          storage::Catalog catalog;
          vault::DataVault vault(&catalog);
          EXPECT_TRUE(vault.Attach(dir_.string()).ok());
          EXPECT_TRUE(vault.IngestAll().ok());
        }
        return faulty_->ops();
      },
      [&](uint64_t) {
        storage::Catalog catalog;
        vault::DataVault vault(&catalog);
        vault.set_ingest_retry({/*max_attempts=*/1});
        auto attached = vault.Attach(dir_.string());
        Status ingest = attached.ok() ? vault.IngestAll() : attached.status();
        faulty_->Disarm();
        // Whatever happened, it was a clean Status; after the fault
        // clears, healing + re-ingest must fully recover.
        (void)ingest;
        if (attached.ok() && *attached == 2) {
          vault.Heal();
          vault.EvictCache();
          EXPECT_TRUE(vault.IngestAll().ok());
        }
      });
  EXPECT_GT(n, 4u);
}

}  // namespace
}  // namespace teleios
