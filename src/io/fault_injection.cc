#include "io/fault_injection.h"

#include "obs/metrics.h"

namespace teleios::io {

void FaultInjectingFileSystem::Arm(const FaultSpec& spec) {
  {
    MutexLock lock(mu_);
    spec_ = spec;
    bits_flipped_ = 0;
  }
  program_.Arm(spec);
}

void FaultInjectingFileSystem::Disarm() { program_.Disarm(); }

Status FaultInjectingFileSystem::InjectedError(const char* what) {
  return Status::IoError(std::string("injected fault: ") + what);
}

void FaultInjectingFileSystem::ApplyBitFlip(uint8_t* bytes, size_t len) {
  bytes[program_.NextRandom() % len] ^=
      static_cast<uint8_t>(1u << (program_.NextRandom() % 8));
  MutexLock lock(mu_);
  ++bits_flipped_;
}

std::optional<FaultKind> FaultInjectingFileSystem::NextOp(OpClass op) {
  FaultKind kind;
  bool counted;
  {
    MutexLock lock(mu_);
    kind = spec_.kind;
    // The counting mode applies to disabled (inject_at = 0) probe runs
    // too, so a probed op count matches the armed sweep that follows.
    counted = !spec_.reads_only || op == OpClass::kRead;
  }
  // Only a Sync can be silently dropped and only a read payload flipped;
  // elsewhere those kinds do nothing.
  bool applies = (kind != FaultKind::kSyncDrop || op == OpClass::kSync) &&
                 (kind != FaultKind::kBitFlip || op == OpClass::kRead);
  switch (program_.Next(counted, applies)) {
    case FaultStep::kPass:
      return std::nullopt;
    case FaultStep::kAfterCrash:
      return FaultKind::kIoError;  // everything after the crash fails
    case FaultStep::kFire:
      break;
  }
  obs::Count("teleios_io_faults_injected_total");
  return kind;
}

Status FaultInjectingFileSystem::Gate(const char* what) {
  return NextOp(OpClass::kOther) ? InjectedError(what) : Status::OK();
}

class FaultyWritableFile : public WritableFile {
 public:
  FaultyWritableFile(FaultInjectingFileSystem* fs,
                     std::unique_ptr<WritableFile> base)
      : fs_(fs), base_(std::move(base)) {}

  Status Append(const void* data, size_t n) override {
    std::optional<FaultKind> fault =
        fs_->NextOp(FaultInjectingFileSystem::OpClass::kOther);
    if (!fault) return base_->Append(data, n);
    if (fault == FaultKind::kShortWrite) {
      // Torn write: half the bytes land before the error.
      (void)base_->Append(data, n / 2);
      return FaultInjectingFileSystem::InjectedError("torn write");
    }
    return FaultInjectingFileSystem::InjectedError(
        fault == FaultKind::kEnospc ? "no space left on device"
                                    : "write failed");
  }

  Status Flush() override {
    TELEIOS_RETURN_IF_ERROR(fs_->Gate("flush failed"));
    return base_->Flush();
  }

  Status Sync() override {
    std::optional<FaultKind> fault =
        fs_->NextOp(FaultInjectingFileSystem::OpClass::kSync);
    if (!fault) return base_->Sync();
    // A dropped sync pretends to be durable; it never fsyncs.
    if (fault == FaultKind::kSyncDrop) return base_->Flush();
    return FaultInjectingFileSystem::InjectedError("fsync failed");
  }

  Status Close() override {
    TELEIOS_RETURN_IF_ERROR(fs_->Gate("close failed"));
    return base_->Close();
  }

 private:
  FaultInjectingFileSystem* fs_;
  std::unique_ptr<WritableFile> base_;
};

class FaultyReadableFile : public ReadableFile {
 public:
  FaultyReadableFile(FaultInjectingFileSystem* fs,
                     std::unique_ptr<ReadableFile> base)
      : fs_(fs), base_(std::move(base)) {}

  Result<size_t> Read(void* buf, size_t n) override {
    std::optional<FaultKind> fault =
        fs_->NextOp(FaultInjectingFileSystem::OpClass::kRead);
    if (fault && fault != FaultKind::kBitFlip) {
      return FaultInjectingFileSystem::InjectedError("read failed");
    }
    Result<size_t> got = base_->Read(buf, n);
    if (fault && got.ok() && *got > 0) {
      fs_->ApplyBitFlip(static_cast<uint8_t*>(buf), *got);
    }
    return got;
  }

 private:
  FaultInjectingFileSystem* fs_;
  std::unique_ptr<ReadableFile> base_;
};

Result<std::unique_ptr<WritableFile>> FaultInjectingFileSystem::NewWritableFile(
    const std::string& path) {
  TELEIOS_RETURN_IF_ERROR(Gate("cannot open for writing"));
  TELEIOS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                           base_->NewWritableFile(path));
  return std::unique_ptr<WritableFile>(
      new FaultyWritableFile(this, std::move(base)));
}

Result<std::unique_ptr<ReadableFile>> FaultInjectingFileSystem::NewReadableFile(
    const std::string& path) {
  TELEIOS_RETURN_IF_ERROR(Gate("cannot open for reading"));
  TELEIOS_ASSIGN_OR_RETURN(std::unique_ptr<ReadableFile> base,
                           base_->NewReadableFile(path));
  return std::unique_ptr<ReadableFile>(
      new FaultyReadableFile(this, std::move(base)));
}

Status FaultInjectingFileSystem::Rename(const std::string& from,
                                        const std::string& to) {
  TELEIOS_RETURN_IF_ERROR(Gate("rename failed"));
  return base_->Rename(from, to);
}

Status FaultInjectingFileSystem::RemoveFile(const std::string& path) {
  TELEIOS_RETURN_IF_ERROR(Gate("remove failed"));
  return base_->RemoveFile(path);
}

Result<bool> FaultInjectingFileSystem::FileExists(const std::string& path) {
  TELEIOS_RETURN_IF_ERROR(Gate("stat failed"));
  return base_->FileExists(path);
}

Status FaultInjectingFileSystem::CreateDir(const std::string& path) {
  TELEIOS_RETURN_IF_ERROR(Gate("mkdir failed"));
  return base_->CreateDir(path);
}

Status FaultInjectingFileSystem::SyncDir(const std::string& dir) {
  std::optional<FaultKind> fault = NextOp(OpClass::kSync);
  if (!fault) return base_->SyncDir(dir);
  // A dropped directory fsync pretends the rename is durable; it isn't.
  if (fault == FaultKind::kSyncDrop) return Status::OK();
  return InjectedError("directory fsync failed");
}

Result<std::vector<std::string>> FaultInjectingFileSystem::ListDirectory(
    const std::string& dir) {
  TELEIOS_RETURN_IF_ERROR(Gate("list failed"));
  return base_->ListDirectory(dir);
}

}  // namespace teleios::io
