// The crash-recovery proof: for every k, kill the filesystem at the
// k-th I/O operation during a durable mutation workload (every op after
// the fault fails too — a process death at that exact point), then
// re-open a fresh instance over the same directory and require that
//   (a) recovery itself never fails — a torn WAL tail is dropped and
//       counted, never surfaced as data loss,
//   (b) the recovered state is a prefix of the issued mutations (no
//       holes, no reordering, no partial effects), and
//   (c) every fsync-acknowledged mutation is present — acked durability
//       survives the crash.
// Swept with both clean I/O errors and torn (short) writes, with and
// without checkpoints landing inside the sweep window.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/observatory.h"
#include "core/recovery.h"
#include "io/fault_injection.h"
#include "io/filesystem.h"
#include "io/wal.h"
#include "relational/sql_engine.h"
#include "storage/catalog.h"
#include "strabon/strabon.h"
#include "sweep_harness.h"

namespace teleios {
namespace {

using core::DurabilityEngines;
using core::DurabilityManager;
using core::DurabilityOptions;
using core::RecoveryReport;

// One "process": engines plus the durability layer over them. A fresh
// Instance over the same directory is a restart.
struct Instance {
  explicit Instance(const std::string& dir, const DurabilityOptions& options)
      : sql(&catalog) {
    DurabilityEngines engines;
    engines.catalog = &catalog;
    engines.sql = &sql;
    engines.strabon = &strabon;
    db = std::make_unique<DurabilityManager>(engines, dir, options);
  }

  storage::Catalog catalog;
  relational::SqlEngine sql;
  strabon::Strabon strabon;
  std::unique_ptr<DurabilityManager> db;
};

class RecoverySweepTest : public FaultyFileSystemTest {
 protected:
  static constexpr int kInserts = 8;

  // Runs the workload, counting how many mutations were acknowledged
  // (an OK return means the record was fsync-durable before applying).
  // Stops at the first failure: a real client would not keep issuing
  // mutations into a dead instance.
  static int RunWorkload(Instance* instance) {
    int acked = 0;
    if (!instance->db->SqlMutation("CREATE TABLE log (id INT)").ok()) {
      return acked;
    }
    ++acked;
    for (int i = 0; i < kInserts; ++i) {
      if (!instance->db
               ->SqlMutation("INSERT INTO log VALUES (" + std::to_string(i) +
                             ")")
               .ok()) {
        return acked;
      }
      ++acked;
    }
    return acked;
  }

  // The recovered table must hold exactly 0..R-1 for some R — a strict
  // prefix of the issued mutations — with every acked one present.
  static void CheckPrefix(Instance* instance, int acked, uint64_t k) {
    auto rows = instance->sql.Execute("SELECT id FROM log");
    int recovered = 0;
    if (rows.ok()) {
      recovered = 1;  // CREATE TABLE itself is mutation #1
      std::set<int64_t> ids;
      for (size_t r = 0; r < rows->num_rows(); ++r) {
        ids.insert(rows->column(0).GetInt64(r));
      }
      ASSERT_EQ(ids.size(), rows->num_rows())
          << "duplicate replay at op " << k;
      int64_t expect = 0;
      for (int64_t id : ids) {
        ASSERT_EQ(id, expect) << "hole in recovered prefix at op " << k;
        ++expect;
      }
      recovered += static_cast<int>(ids.size());
    }
    EXPECT_GE(recovered, acked)
        << "acked mutation lost at op " << k << " (recovered " << recovered
        << ")";
    EXPECT_LE(recovered, 1 + kInserts) << "phantom mutation at op " << k;
  }

  void SweepKillAtEveryOp(io::FaultKind kind, uint64_t checkpoint_bytes,
                          const std::string& tag) {
    DurabilityOptions options;
    options.checkpoint_bytes = checkpoint_bytes;
    uint64_t n = SweepEveryOp(
        tag,
        ArmAt(faulty_.get(), io::FaultSpec{.kind = kind, .crash = true}),
        [&] {
          {
            Instance baseline(Path(tag + "_probe"), options);
            EXPECT_TRUE(baseline.db->Recover().ok());
            EXPECT_EQ(RunWorkload(&baseline), 1 + kInserts);
          }
          return faulty_->ops();
        },
        [&](uint64_t k) {
          const std::string dir = Path(tag + "_" + std::to_string(k));
          int acked = 0;
          {
            Instance victim(dir, options);
            if (victim.db->Recover().ok()) {
              acked = RunWorkload(&victim);
            }
            faulty_->Disarm();
          }
          // Restart: recovery must succeed cleanly at every crash point.
          Instance restarted(dir, options);
          Status recovered = restarted.db->Recover();
          ASSERT_TRUE(recovered.ok()) << recovered.ToString();
          ASSERT_NE(recovered.code(), StatusCode::kDataLoss);
          RecoveryReport report = restarted.db->recovery_report();
          EXPECT_TRUE(report.recovered);
          EXPECT_EQ(report.replay_errors, 0u);
          CheckPrefix(&restarted, acked, k);
        });
    EXPECT_GT(n, 10u);
  }
};

TEST_F(RecoverySweepTest, KillAtEveryOpCleanIoError) {
  SweepKillAtEveryOp(io::FaultKind::kIoError, /*checkpoint_bytes=*/0, "io");
}

TEST_F(RecoverySweepTest, KillAtEveryOpTornWrite) {
  SweepKillAtEveryOp(io::FaultKind::kShortWrite, /*checkpoint_bytes=*/0,
                     "torn");
}

// Same sweep with a tiny checkpoint threshold, so snapshots, log
// rotations, carry-forward records, and truncations all land inside the
// kill window.
TEST_F(RecoverySweepTest, KillAtEveryOpAcrossCheckpoints) {
  SweepKillAtEveryOp(io::FaultKind::kShortWrite, /*checkpoint_bytes=*/128,
                     "ckpt");
}

// No faults: state accumulates across restarts, checkpoints truncate
// the log, and a post-checkpoint reopen replays only the tail.
TEST_F(RecoverySweepTest, CheckpointTruncatesAndStateAccumulates) {
  const std::string dir = Path("accumulate");
  DurabilityOptions options;
  options.checkpoint_bytes = 0;  // explicit checkpoints only
  {
    Instance a(dir, options);
    ASSERT_TRUE(a.db->Recover().ok());
    ASSERT_EQ(RunWorkload(&a), 1 + kInserts);
    ASSERT_GT(a.db->stats().wal.total_bytes, 0u);
    uint64_t seq_before = a.db->stats().wal.segment_seq;
    ASSERT_TRUE(a.db->Checkpoint().ok());
    EXPECT_EQ(a.db->stats().checkpoints, 1u);
    // The pre-checkpoint segments are gone; only the rotated-to segment
    // (holding the carry-forward records) remains.
    auto segments = io::ListWalSegments(dir + "/wal");
    ASSERT_TRUE(segments.ok());
    ASSERT_EQ(segments->size(), 1u);
    EXPECT_GT(a.db->stats().wal.segment_seq, seq_before);
    ASSERT_TRUE(
        a.db->SqlMutation("INSERT INTO log VALUES (100)").ok());
  }
  {
    Instance b(dir, options);
    ASSERT_TRUE(b.db->Recover().ok());
    RecoveryReport report = b.db->recovery_report();
    EXPECT_TRUE(report.snapshot_loaded);
    EXPECT_GT(report.snapshot_lsn, 0u);
    // The nine pre-checkpoint mutations live in the snapshot (their
    // records were truncated); the log replays only the carry-forward
    // semantic-store snapshot plus the post-checkpoint insert.
    EXPECT_EQ(report.records_applied, 2u);
    EXPECT_EQ(report.records_skipped, 0u);
    auto rows = b.sql.Execute("SELECT id FROM log");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->num_rows(), static_cast<size_t>(kInserts) + 1);
  }
}

// Semantic-store durability: updates, linked-data loads, and annotation
// publications replay across restarts (via WAL tail and, after a
// checkpoint, via the carry-forward snapshot record).
TEST_F(RecoverySweepTest, StrabonStateSurvivesRestart) {
  const std::string dir = Path("strabon");
  DurabilityOptions options;
  options.checkpoint_bytes = 0;
  size_t loaded_size = 0;
  {
    Instance a(dir, options);
    ASSERT_TRUE(a.db->Recover().ok());
    ASSERT_TRUE(a.db
                    ->LoadTurtle("<http://e/s> <http://e/p> <http://e/o> .\n"
                                 "<http://e/s> <http://e/p> <http://e/o2> .")
                    .ok());
    ASSERT_TRUE(
        a.db->StrabonUpdate("INSERT DATA { <http://e/s2> <http://e/p> "
                            "<http://e/o> . }")
            .ok());
    loaded_size = a.strabon.size();
    ASSERT_EQ(loaded_size, 3u);
  }
  {
    Instance b(dir, options);
    ASSERT_TRUE(b.db->Recover().ok());
    EXPECT_EQ(b.strabon.size(), loaded_size);
    // Checkpoint, then restart again: the store now comes back from the
    // carry-forward record alone.
    ASSERT_TRUE(b.db->Checkpoint().ok());
  }
  {
    Instance c(dir, options);
    ASSERT_TRUE(c.db->Recover().ok());
    EXPECT_EQ(c.strabon.size(), loaded_size);
  }
}

// A torn tail (simulating a crash mid-append without fault injection:
// truncate the last segment mid-record) is dropped, counted, and not an
// error; flipping a byte in the MIDDLE of the log is data loss.
TEST_F(RecoverySweepTest, TornTailToleratedMidLogCorruptionFatal) {
  const std::string dir = Path("tail");
  DurabilityOptions options;
  options.checkpoint_bytes = 0;
  {
    Instance a(dir, options);
    ASSERT_TRUE(a.db->Recover().ok());
    ASSERT_EQ(RunWorkload(&a), 1 + kInserts);
  }
  auto segments = io::ListWalSegments(dir + "/wal");
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments->empty());
  const std::string segment = segments->back();
  auto original = io::GetFileSystem()->ReadFile(segment);
  ASSERT_TRUE(original.ok());

  // Torn tail: chop into the last record's frame.
  ASSERT_TRUE(io::GetFileSystem()
                  ->WriteFileAtomic(segment,
                                    original->substr(0, original->size() - 3))
                  .ok());
  {
    Instance b(dir, options);
    ASSERT_TRUE(b.db->Recover().ok());
    RecoveryReport report = b.db->recovery_report();
    EXPECT_EQ(report.tail_records_dropped, 1u);
    EXPECT_EQ(report.records_applied, static_cast<uint64_t>(kInserts));
    auto rows = b.sql.Execute("SELECT id FROM log");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->num_rows(), static_cast<size_t>(kInserts) - 1);
  }

  // Mid-log corruption: flip a byte inside the FIRST record's payload
  // (offset 16 = segment header + frame header), so the CRC mismatch is
  // followed by further records — corruption, not a torn tail.
  std::string corrupt = *original;
  corrupt[20] ^= 0x40;
  ASSERT_TRUE(io::GetFileSystem()->WriteFileAtomic(segment, corrupt).ok());
  {
    Instance c(dir, options);
    Status st = c.db->Recover();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  }
}

// The facade end to end: Open() recovers, Sql() routes mutations
// through the WAL, sys.wal reports the durability state, and a reopened
// observatory sees the acked mutations.
TEST_F(RecoverySweepTest, ObservatoryOpenRoutesAndReports) {
  const std::string dir = Path("veo");
  {
    core::VirtualEarthObservatory veo;
    DurabilityOptions options;
    options.checkpoint_bytes = 0;
    ASSERT_TRUE(veo.Open(dir, options).ok());
    ASSERT_TRUE(veo.durable());
    ASSERT_TRUE(veo.Sql("CREATE TABLE fires (id INT)").ok());
    ASSERT_TRUE(veo.Sql("INSERT INTO fires VALUES (7)").ok());
    ASSERT_TRUE(
        veo.LoadLinkedData("<http://e/f7> <http://e/sev> \"high\" .").ok());

    auto wal = veo.Sql("SELECT appends_total, recovered FROM sys.wal");
    ASSERT_TRUE(wal.ok());
    ASSERT_EQ(wal->num_rows(), 1u);
    EXPECT_GE(wal->column(0).GetInt64(0), 2);
    EXPECT_EQ(wal->column(1).GetInt64(0), 1);
    EXPECT_EQ(veo.Open(dir).code(), StatusCode::kInternal);  // once only
  }
  {
    core::VirtualEarthObservatory veo;
    size_t ontology_triples = veo.strabon().size();
    ASSERT_TRUE(veo.Open(dir).ok());
    auto rows = veo.Sql("SELECT id FROM fires");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->num_rows(), 1u);
    EXPECT_EQ(rows->column(0).GetInt64(0), 7);
    EXPECT_EQ(veo.strabon().size(), ontology_triples + 1);
    RecoveryReport report = veo.recovery_report();
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.records_applied, 3u);
  }
}

}  // namespace
}  // namespace teleios
