// Unit tests for the I/O layer: CRC32C, checksummed block framing,
// atomic durable writes, the deterministic fault-injecting filesystem
// and the bounded retry helper.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "io/fault_injection.h"
#include "io/filesystem.h"
#include "io/retry.h"
#include "io/wal.h"
#include "sweep_harness.h"

namespace teleios::io {
namespace {

namespace stdfs = std::filesystem;

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(std::string_view()), 0u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data)) << "split=" << split;
  }
}

TEST(Crc32cTest, DetectsEverySingleBitFlip) {
  std::string data = "payload under test 0123456789";
  const uint32_t good = Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32c(data), good);
      data[i] ^= static_cast<char>(1 << bit);
    }
  }
}

class FileSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("io_test_" + std::to_string(::getpid()));
    stdfs::create_directories(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  stdfs::path dir_;
};

TEST_F(FileSystemTest, WriteReadRoundTrip) {
  FileSystem* fs = GetFileSystem();
  std::string body(200000, 'x');  // > one 64 KiB chunk
  body += "tail";
  ASSERT_TRUE(fs->WriteFileAtomic(Path("f.bin"), body).ok());
  auto back = fs->ReadFile(Path("f.bin"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, body);
  // No tmp residue after a successful atomic write.
  EXPECT_FALSE(*fs->FileExists(Path("f.bin.tmp")));
}

TEST_F(FileSystemTest, ListDirectoryIsSorted) {
  FileSystem* fs = GetFileSystem();
  ASSERT_TRUE(fs->WriteFileAtomic(Path("c.ter"), "c").ok());
  ASSERT_TRUE(fs->WriteFileAtomic(Path("a.ter"), "a").ok());
  ASSERT_TRUE(fs->WriteFileAtomic(Path("b.vec"), "b").ok());
  auto listing = fs->ListDirectory(dir_.string());
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 3u);
  EXPECT_LT((*listing)[0], (*listing)[1]);
  EXPECT_LT((*listing)[1], (*listing)[2]);
  EXPECT_EQ(fs->ListDirectory(Path("missing")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(FileSystemTest, BlockRoundTripAndCorruption) {
  FileSystem* fs = GetFileSystem();
  std::string image;
  AppendBlockTo(&image, "first payload");
  AppendBlockTo(&image, std::string(100000, 'y'));
  ASSERT_TRUE(fs->WriteFileAtomic(Path("blocks"), image).ok());
  {
    auto file = fs->NewReadableFile(Path("blocks"));
    ASSERT_TRUE(file.ok());
    FileReader reader(std::move(*file));
    auto b1 = ReadBlock(&reader);
    ASSERT_TRUE(b1.ok());
    EXPECT_EQ(*b1, "first payload");
    auto b2 = ReadBlock(&reader);
    ASSERT_TRUE(b2.ok());
    EXPECT_EQ(b2->size(), 100000u);
  }
  // Flip one payload byte: kDataLoss, not garbage.
  std::string corrupt = image;
  corrupt[sizeof(uint64_t) + sizeof(uint32_t) + 3] ^= 0x10;
  ASSERT_TRUE(fs->WriteFileAtomic(Path("bad"), corrupt).ok());
  auto file = fs->NewReadableFile(Path("bad"));
  ASSERT_TRUE(file.ok());
  FileReader reader(std::move(*file));
  EXPECT_EQ(ReadBlock(&reader).status().code(), StatusCode::kDataLoss);
}

TEST_F(FileSystemTest, BlockRejectsImplausibleLength) {
  FileSystem* fs = GetFileSystem();
  std::string image;
  uint64_t bogus = ~0ull;  // 16 EiB
  uint32_t crc = 0;
  image.append(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  image.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_TRUE(fs->WriteFileAtomic(Path("huge"), image).ok());
  auto file = fs->NewReadableFile(Path("huge"));
  ASSERT_TRUE(file.ok());
  FileReader reader(std::move(*file));
  EXPECT_EQ(ReadBlock(&reader).status().code(), StatusCode::kDataLoss);
}

TEST_F(FileSystemTest, CrcTrailerRoundTripAndCorruption) {
  std::string content = "line one\nline two\n";
  std::string stamped = content;
  AppendCrcTrailer(&stamped);
  auto back = VerifyCrcTrailer(stamped);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, content);
  // Any flip in the body is caught.
  std::string corrupt = stamped;
  corrupt[5] ^= 0x01;
  EXPECT_EQ(VerifyCrcTrailer(corrupt).status().code(), StatusCode::kDataLoss);
  // Truncation (trailer gone) is a ParseError.
  EXPECT_EQ(VerifyCrcTrailer(content).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(VerifyCrcTrailer("").status().code(), StatusCode::kParseError);
}

// --- fault injection -------------------------------------------------------

class FaultTest : public FileSystemTest {};

TEST_F(FaultTest, FailsExactlyTheKthOp) {
  FaultInjectingFileSystem faulty(GetFileSystem());
  FaultSpec spec;
  spec.inject_at = 2;  // op 1 = NewWritableFile, op 2 = first Append
  faulty.Arm(spec);
  auto file = faulty.NewWritableFile(Path("f"));
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->Append("hello").code(), StatusCode::kIoError);
  EXPECT_EQ(faulty.faults_injected(), 1u);
  // Not periodic: the next op goes through.
  EXPECT_TRUE((*file)->Append("hello").ok());
  EXPECT_TRUE((*file)->Close().ok());
}

TEST_F(FaultTest, CrashModeFailsEverythingAfterTrigger) {
  FaultInjectingFileSystem faulty(GetFileSystem());
  FaultSpec spec;
  spec.inject_at = 2;
  spec.crash = true;
  faulty.Arm(spec);
  auto file = faulty.NewWritableFile(Path("f"));
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Append("x").ok());
  EXPECT_FALSE((*file)->Append("x").ok());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_FALSE(faulty.Rename(Path("a"), Path("b")).ok());
  faulty.Disarm();
  EXPECT_TRUE(faulty.CreateDir(Path("sub")).ok());
}

TEST_F(FaultTest, ShortWriteTearsTheFile) {
  FaultInjectingFileSystem faulty(GetFileSystem());
  FaultSpec spec;
  spec.kind = FaultKind::kShortWrite;
  spec.inject_at = 2;
  faulty.Arm(spec);
  auto file = faulty.NewWritableFile(Path("torn"));
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Append("0123456789").ok());
  ASSERT_TRUE((*file)->Close().ok());
  faulty.Disarm();
  auto back = faulty.ReadFile(Path("torn"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "01234");  // first half only
}

TEST_F(FaultTest, EnospcWritesNothing) {
  FaultInjectingFileSystem faulty(GetFileSystem());
  FaultSpec spec;
  spec.kind = FaultKind::kEnospc;
  spec.inject_at = 2;
  faulty.Arm(spec);
  auto file = faulty.NewWritableFile(Path("full"));
  ASSERT_TRUE(file.ok());
  Status st = (*file)->Append("0123456789");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("no space"), std::string::npos);
  ASSERT_TRUE((*file)->Close().ok());
  faulty.Disarm();
  EXPECT_EQ(*faulty.ReadFile(Path("full")), "");
}

TEST_F(FaultTest, BitFlipCorruptsExactlyOneBit) {
  FaultInjectingFileSystem faulty(GetFileSystem());
  std::string body(64, 'A');
  ASSERT_TRUE(faulty.WriteFileAtomic(Path("f"), body).ok());
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  spec.reads_only = true;
  spec.inject_at = 1;
  spec.seed = 42;
  faulty.Arm(spec);
  auto back = faulty.ReadFile(Path("f"));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), body.size());
  size_t diff_bits = 0;
  for (size_t i = 0; i < body.size(); ++i) {
    uint8_t x = static_cast<uint8_t>((*back)[i] ^ body[i]);
    while (x) {
      diff_bits += x & 1;
      x >>= 1;
    }
  }
  EXPECT_EQ(diff_bits, 1u);
}

TEST_F(FaultTest, EveryNRepeatsTheFault) {
  FaultInjectingFileSystem faulty(GetFileSystem());
  FaultSpec spec;
  spec.inject_at = 2;
  spec.every_n = 2;
  faulty.Arm(spec);
  auto file = faulty.NewWritableFile(Path("f"));  // op 1: ok
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Append("a").ok());  // op 2: fault
  EXPECT_TRUE((*file)->Append("b").ok());   // op 3: ok
  EXPECT_FALSE((*file)->Append("c").ok());  // op 4: fault
  EXPECT_TRUE((*file)->Close().ok());       // op 5: ok
  EXPECT_EQ(faulty.faults_injected(), 2u);
}

TEST_F(FaultTest, AtomicWriteLeavesOldOrNewFileOnFault) {
  FaultInjectingFileSystem faulty(GetFileSystem());
  ScopedFileSystem scoped(&faulty);
  ASSERT_TRUE(GetFileSystem()->WriteFileAtomic(Path("f"), "old").ok());
  // Fail every op in turn; after each failed write the content must be
  // the complete old or complete new file (a fault at the post-rename
  // directory fsync leaves the new file with a non-OK status) — never a
  // hybrid, never missing.
  auto write = [&](const char* content) {
    return GetFileSystem()->WriteFileAtomic(Path("f"), content);
  };
  SweepEveryOp(
      "atomic write", ArmAt(&faulty, FaultSpec{.crash = true}),
      [&] {
        EXPECT_TRUE(write("replacement!").ok());
        uint64_t ops = faulty.ops();
        EXPECT_TRUE(write("old").ok());
        return ops;
      },
      [&](uint64_t) {
        Status st = write("replacement!");
        faulty.Disarm();
        auto back = GetFileSystem()->ReadFile(Path("f"));
        ASSERT_TRUE(back.ok());
        if (st.ok()) {
          EXPECT_EQ(*back, "replacement!");
        } else {
          EXPECT_TRUE(*back == "old" || *back == "replacement!")
              << "hybrid: '" << *back << "'";
        }
        if (*back != "old") {
          ASSERT_TRUE(write("old").ok());
        }
      });
}

TEST_F(FaultTest, DirFsyncFaultSurfacesAfterRename) {
  FaultInjectingFileSystem faulty(GetFileSystem());
  ScopedFileSystem scoped(&faulty);
  ASSERT_TRUE(GetFileSystem()->WriteFileAtomic(Path("f"), "old").ok());
  // The directory fsync is the last counted op of WriteFileAtomic.
  FaultSpec spec{.kind = FaultKind::kSyncFail};
  spec.inject_at = ProbeOps(ArmAt(&faulty, spec), [&] {
    EXPECT_TRUE(GetFileSystem()->WriteFileAtomic(Path("f"), "old").ok());
    return faulty.ops();
  });
  faulty.Arm(spec);
  Status st = GetFileSystem()->WriteFileAtomic(Path("f"), "new");
  faulty.Disarm();
  // The rename happened but its durability is unknown: error surfaced,
  // new content visible.
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("directory fsync"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(*GetFileSystem()->ReadFile(Path("f")), "new");

  // A dropped (lying) directory fsync reports success.
  spec.kind = FaultKind::kSyncDrop;
  faulty.Arm(spec);
  EXPECT_TRUE(GetFileSystem()->WriteFileAtomic(Path("f"), "newer").ok());
  faulty.Disarm();
  EXPECT_EQ(faulty.faults_injected(), 1u);
}

// --- retry -----------------------------------------------------------------

TEST(RetryTest, RetriesTransientFailuresUpToBudget) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  Status st = WithRetry(policy, "test", [&] {
    ++calls;
    return calls < 3 ? Status::IoError("flaky") : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);

  calls = 0;
  st = WithRetry(policy, "test", [&] {
    ++calls;
    return Status::IoError("always");
  });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, DoesNotRetryLogicErrors) {
  RetryPolicy policy;
  int calls = 0;
  Status st = WithRetry(policy, "test", [&] {
    ++calls;
    return Status::ParseError("bad format");
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, WorksWithResultReturns) {
  RetryPolicy policy;
  int calls = 0;
  Result<int> r = WithRetry(policy, "test", [&]() -> Result<int> {
    ++calls;
    if (calls == 1) return Status::DataLoss("flip");
    return 41 + calls;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 43);
}

TEST(RetryTest, DeterministicBackoffSchedule) {
  RetryPolicy policy;
  policy.base_backoff_ms = 8;
  policy.multiplier = 2.0;
  EXPECT_DOUBLE_EQ(policy.BackoffMillis(2), 8.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMillis(3), 16.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMillis(4), 32.0);
}

TEST(RetryTest, DecorrelatedJitterIsDeterministicUnderSeed) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.decorrelated_jitter = true;
  policy.max_backoff_ms = 500;
  policy.jitter_seed = 42;

  auto schedule = [&](uint64_t seed) {
    RetryPolicy p = policy;
    p.jitter_seed = seed;
    uint64_t rng = p.jitter_seed;
    std::vector<double> out;
    double prev = 0;
    for (int attempt = 2; attempt <= 8; ++attempt) {
      prev = p.NextBackoffMillis(attempt, prev, &rng);
      out.push_back(prev);
    }
    return out;
  };
  EXPECT_EQ(schedule(42), schedule(42));     // reproducible
  EXPECT_NE(schedule(42), schedule(43));     // seed actually matters
}

TEST(RetryTest, DecorrelatedJitterStaysInEnvelope) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.decorrelated_jitter = true;
  policy.max_backoff_ms = 120;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    uint64_t rng = seed;
    double prev = 0;
    for (int attempt = 2; attempt <= 12; ++attempt) {
      double next = policy.NextBackoffMillis(attempt, prev, &rng);
      // AWS decorrelated jitter: uniform in [base, min(cap, 3*prev)].
      EXPECT_GE(next, 10.0) << "seed " << seed << " attempt " << attempt;
      EXPECT_LE(next, 120.0) << "seed " << seed << " attempt " << attempt;
      double upper = std::min(120.0, 3.0 * std::max(prev, 10.0));
      EXPECT_LE(next, upper) << "seed " << seed << " attempt " << attempt;
      prev = next;
    }
  }
}

TEST(RetryTest, JitterOffKeepsExponentialScheduleUnderCap) {
  RetryPolicy policy;
  policy.base_backoff_ms = 8;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 20;
  uint64_t rng = 1;
  EXPECT_DOUBLE_EQ(policy.NextBackoffMillis(2, 0, &rng), 8.0);
  EXPECT_DOUBLE_EQ(policy.NextBackoffMillis(3, 8, &rng), 16.0);
  EXPECT_DOUBLE_EQ(policy.NextBackoffMillis(4, 16, &rng), 20.0);  // capped
}

class WalTest : public FileSystemTest {
 protected:
  std::string WalDir() { return Path("wal"); }

  // Appends `n` records ("record-<i>") through a writer, synced.
  Result<std::unique_ptr<WalWriter>> OpenAndAppend(int n,
                                                   uint64_t first_lsn = 1) {
    TELEIOS_ASSIGN_OR_RETURN(
        auto writer, WalWriter::Open(WalDir(), first_lsn, 0, {}));
    for (int i = 0; i < n; ++i) {
      TELEIOS_RETURN_IF_ERROR(
          writer->Append(7, "record-" + std::to_string(i)).status());
    }
    TELEIOS_RETURN_IF_ERROR(writer->Sync());
    return writer;
  }

  Result<std::vector<WalRecord>> ReplayAll(WalReplayStats* stats = nullptr) {
    std::vector<WalRecord> records;
    TELEIOS_ASSIGN_OR_RETURN(
        WalReplayStats s, ReplayWal(WalDir(), [&](const WalRecord& r) {
          records.push_back(r);
          return Status::OK();
        }));
    if (stats != nullptr) *stats = s;
    return records;
  }
};

TEST_F(WalTest, AppendSyncReplayRoundTrip) {
  auto writer = OpenAndAppend(5);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->stats().synced_lsn, 5u);

  WalReplayStats stats;
  auto records = ReplayAll(&stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 5u);
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].lsn, i + 1);
    EXPECT_EQ((*records)[i].type, 7u);
    EXPECT_EQ((*records)[i].payload, "record-" + std::to_string(i));
  }
  EXPECT_EQ(stats.tail_dropped, 0u);
  EXPECT_EQ(stats.last_lsn, 5u);
}

TEST_F(WalTest, UnsyncedRecordsAreNotDurable) {
  auto writer = WalWriter::Open(WalDir(), 1, 0, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(1, "synced").ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  ASSERT_TRUE((*writer)->Append(1, "buffered-only").ok());
  // No sync: the second record must not replay.
  auto records = ReplayAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "synced");
}

TEST_F(WalTest, ReopenNeverAppendsIntoOldSegmentAndLsnsContinue) {
  { ASSERT_TRUE(OpenAndAppend(3).ok()); }
  auto writer = WalWriter::Open(WalDir(), /*next_lsn=*/4, 0, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(7, "after-restart").ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  auto segments = ListWalSegments(WalDir());
  ASSERT_TRUE(segments.ok());
  EXPECT_EQ(segments->size(), 2u);  // fresh segment, old left inert
  auto records = ReplayAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ((*records)[3].lsn, 4u);
  EXPECT_EQ((*records)[3].payload, "after-restart");
}

TEST_F(WalTest, TornTailIsDroppedNotFatal) {
  { ASSERT_TRUE(OpenAndAppend(4).ok()); }
  auto segments = ListWalSegments(WalDir());
  ASSERT_TRUE(segments.ok());
  const std::string segment = segments->back();
  auto bytes = GetFileSystem()->ReadFile(segment);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(GetFileSystem()
                  ->WriteFileAtomic(segment,
                                    bytes->substr(0, bytes->size() - 5))
                  .ok());
  WalReplayStats stats;
  auto records = ReplayAll(&stats);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 3u);
  EXPECT_EQ(stats.tail_dropped, 1u);
}

TEST_F(WalTest, MidSegmentCorruptionIsDataLoss) {
  { ASSERT_TRUE(OpenAndAppend(4).ok()); }
  auto segments = ListWalSegments(WalDir());
  ASSERT_TRUE(segments.ok());
  const std::string segment = segments->back();
  auto bytes = GetFileSystem()->ReadFile(segment);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[20] ^= 0x01;  // first record's payload: CRC mismatch mid-log
  ASSERT_TRUE(GetFileSystem()->WriteFileAtomic(segment, corrupt).ok());
  auto records = ReplayAll();
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
}

TEST_F(WalTest, NewerFormatVersionIsRejected) {
  { ASSERT_TRUE(OpenAndAppend(1).ok()); }
  auto segments = ListWalSegments(WalDir());
  ASSERT_TRUE(segments.ok());
  const std::string segment = segments->back();
  auto bytes = GetFileSystem()->ReadFile(segment);
  ASSERT_TRUE(bytes.ok());
  std::string future = *bytes;
  future[4] = 2;  // version field right after the magic
  ASSERT_TRUE(GetFileSystem()->WriteFileAtomic(segment, future).ok());
  auto records = ReplayAll();
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(records.status().message().find("newer"), std::string::npos)
      << records.status().ToString();
}

TEST_F(WalTest, RotateStartsNewSegmentAndTruncateDropsOld) {
  auto writer = OpenAndAppend(3);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Rotate().ok());
  ASSERT_TRUE((*writer)->Append(7, "fresh").ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  auto segments = ListWalSegments(WalDir());
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);
  ASSERT_TRUE((*writer)->TruncateBefore((*writer)->segment_seq()).ok());
  segments = ListWalSegments(WalDir());
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  auto records = ReplayAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "fresh");
}

TEST_F(WalTest, SyncFailurePoisonsSegmentAndDropsUnacked) {
  PosixFileSystem posix;
  FaultInjectingFileSystem faulty(&posix);
  FileSystem* prev = SetFileSystem(&faulty);
  auto writer = WalWriter::Open(WalDir(), 1, 0, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(7, "durable").ok());
  ASSERT_TRUE((*writer)->Sync().ok());

  // Fail the next sync: the buffered record is dropped (never acked)
  // and the segment is poisoned.
  ASSERT_TRUE((*writer)->Append(7, "lost").ok());
  FaultSpec spec;
  spec.kind = FaultKind::kSyncFail;
  spec.inject_at = 1;
  faulty.Arm(spec);
  Status failed = (*writer)->Sync();
  faulty.Disarm();
  ASSERT_FALSE(failed.ok());

  // The next append rotates to a fresh segment and syncs cleanly.
  ASSERT_TRUE((*writer)->Append(7, "after-poison").ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();
  SetFileSystem(prev);

  auto records = ReplayAll();
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  std::vector<std::string> payloads;
  for (const WalRecord& r : *records) payloads.push_back(r.payload);
  EXPECT_EQ(payloads,
            (std::vector<std::string>{"durable", "after-poison"}));
}

TEST_F(WalTest, EmptyDirectoryReplaysNothing) {
  WalReplayStats stats;
  auto records = ReplayAll(&stats);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  EXPECT_EQ(stats.segments, 0u);
}

}  // namespace
}  // namespace teleios::io
