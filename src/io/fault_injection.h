#ifndef TELEIOS_IO_FAULT_INJECTION_H_
#define TELEIOS_IO_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_program.h"
#include "common/thread_annotations.h"
#include "io/filesystem.h"

namespace teleios::io {

/// What goes wrong when the armed fault fires.
enum class FaultKind {
  /// The op fails with a generic IoError (EIO-style).
  kIoError,
  /// An Append writes only the first half of its bytes, then errors — a
  /// torn write. Non-append ops fail with IoError.
  kShortWrite,
  /// An Append fails with "no space left on device" writing nothing.
  kEnospc,
  /// A Sync fails (battery-backed cache gone bad); other ops IoError.
  kSyncFail,
  /// A Sync silently does nothing and reports success (lying drive).
  /// Only meaningful combined with a real crash; included so harnesses
  /// can at least exercise the code path.
  kSyncDrop,
  /// A Read succeeds but one bit of the returned buffer is flipped —
  /// silent media corruption the checksum layer must catch. Non-read ops
  /// are passed through untouched.
  kBitFlip,
};

/// A deterministic, seedable fault program (run by a FaultProgram): the
/// `inject_at`-th counted I/O operation after Arm() misbehaves per
/// `kind`; with `every_n` > 0 the fault also repeats every `every_n` ops
/// after that (fault-rate benchmarks); with `crash` every operation after
/// the first fault fails too, counted or not, simulating a process crash
/// / yanked disk at that exact point.
struct FaultSpec {
  FaultKind kind = FaultKind::kIoError;
  uint64_t inject_at = 1;  // 1-based op index; 0 disables
  uint64_t every_n = 0;
  bool crash = false;
  /// When true only Read operations are counted (for read-side sweeps
  /// such as bit-flip coverage, where metadata ops are irrelevant).
  bool reads_only = false;
  uint64_t seed = 1;  // bit-flip placement
};

/// Wraps any FileSystem and injects deterministic faults per an armed
/// FaultSpec; disarmed it is a transparent pass-through that still counts
/// operations. Every injected fault increments
/// `teleios_io_faults_injected_total`.
///
/// Counted operations: NewWritableFile, NewReadableFile, Append, Flush,
/// Sync, Close, Rename, RemoveFile, FileExists, CreateDir, SyncDir,
/// ListDirectory and each ReadableFile::Read call. SyncDir counts as a
/// sync op, so kSyncFail/kSyncDrop cover dropped directory fsyncs too.
class FaultInjectingFileSystem : public FileSystem {
 public:
  /// `base` must outlive this wrapper (and any files it opened).
  explicit FaultInjectingFileSystem(FileSystem* base) : base_(base) {}

  /// Installs `spec` and resets the operation counter.
  void Arm(const FaultSpec& spec);
  /// Back to pass-through (op counter keeps its value).
  void Disarm();

  /// Operations counted since the last Arm() (or construction).
  uint64_t ops() const { return program_.ops(); }
  /// Faults injected since the last Arm().
  uint64_t faults_injected() const { return program_.faults(); }
  /// Bits actually corrupted by kBitFlip faults since the last Arm().
  /// A flip scheduled onto a zero-byte read (an EOF probe) has nothing
  /// to corrupt, so this can lag behind faults_injected().
  uint64_t bits_flipped() const {
    MutexLock lock(mu_);
    return bits_flipped_;
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<ReadableFile>> NewReadableFile(
      const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Result<bool> FileExists(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Result<std::vector<std::string>> ListDirectory(
      const std::string& dir) override;

 private:
  friend class FaultyWritableFile;
  friend class FaultyReadableFile;

  enum class OpClass { kRead, kSync, kOther };

  /// Counts one operation and decides its fate: nullopt when it goes
  /// ahead, else the kind of fault to apply — kIoError for every op
  /// after a crash.
  std::optional<FaultKind> NextOp(OpClass op) TELEIOS_EXCLUDES(mu_);
  /// NextOp for an op that any fault simply fails.
  Status Gate(const char* what) TELEIOS_EXCLUDES(mu_);
  static Status InjectedError(const char* what);
  /// Corrupts one bit of `bytes[0..len)`, placed by the program's RNG.
  void ApplyBitFlip(uint8_t* bytes, size_t len) TELEIOS_EXCLUDES(mu_);

  FileSystem* base_;
  FaultProgram program_;
  /// Guards the armed spec and the bit-flip count.
  mutable Mutex mu_;
  FaultSpec spec_ TELEIOS_GUARDED_BY(mu_);
  uint64_t bits_flipped_ TELEIOS_GUARDED_BY(mu_) = 0;
};

}  // namespace teleios::io

#endif  // TELEIOS_IO_FAULT_INJECTION_H_
