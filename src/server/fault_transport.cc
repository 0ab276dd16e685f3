#include "server/fault_transport.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace teleios::server {

namespace {

Status InjectedIoError(const char* what) {
  return Status::IoError(std::string("injected transport fault: ") + what);
}

}  // namespace

const char* TransportFaultKindName(TransportFaultKind kind) {
  switch (kind) {
    case TransportFaultKind::kIoError:
      return "io_error";
    case TransportFaultKind::kShortWrite:
      return "short_write";
    case TransportFaultKind::kShortRead:
      return "short_read";
    case TransportFaultKind::kDisconnect:
      return "disconnect";
    case TransportFaultKind::kConnectRefused:
      return "connect_refused";
    case TransportFaultKind::kStall:
      return "stall";
  }
  return "unknown";
}

/// One faulty byte stream: consults the owning transport's fault
/// program before every counted op, and tracks its own byte total for
/// drop_after_bytes. Not thread-safe beyond what Connection promises
/// (ShutdownBoth/Close may race a parked read; the byte counter is only
/// touched by the I/O thread).
class FaultyConnection : public Connection {
 public:
  FaultyConnection(FaultInjectingTransport* owner,
                   std::unique_ptr<Connection> base)
      : owner_(owner), base_(std::move(base)) {}

  Status ReadExact(void* dst, size_t n, int poll_millis,
                   bool (*keep_going)(void*), void* arg) override {
    std::optional<TransportFaultKind> fault = NextFault();
    if (fault == TransportFaultKind::kShortRead) {
      // Deliver the first half of the message, then the wire dies —
      // the caller sees a torn frame (kDataLoss), or a clean close
      // when nothing at all had arrived.
      size_t half = n / 2;
      if (half > 0) {
        Status st = base_->ReadExact(dst, half, poll_millis, keep_going, arg);
        if (!st.ok()) {
          base_->ShutdownBoth();
          return st;
        }
      }
      base_->ShutdownBoth();
      if (half == 0) {
        return Status::Unavailable(
            "injected transport fault: connection closed by peer");
      }
      return Status::DataLoss(
          "injected transport fault: connection closed mid-message (" +
          std::to_string(half) + "/" + std::to_string(n) + " bytes)");
    }
    if (fault) {
      base_->ShutdownBoth();
      if (fault == TransportFaultKind::kDisconnect) {
        return Status::Unavailable(
            "injected transport fault: connection closed by peer");
      }
      return InjectedIoError("read failed, connection reset");
    }
    Status st = base_->ReadExact(dst, n, poll_millis, keep_going, arg);
    if (st.ok()) bytes_ += n;
    return st;
  }

  Result<size_t> ReadSome(void* dst, size_t n, int timeout_millis) override {
    if (std::optional<TransportFaultKind> fault = NextFault()) {
      base_->ShutdownBoth();
      if (fault == TransportFaultKind::kShortRead ||
          fault == TransportFaultKind::kDisconnect) {
        return {static_cast<size_t>(0)};  // clean EOF shape
      }
      return InjectedIoError("read failed, connection reset");
    }
    Result<size_t> r = base_->ReadSome(dst, n, timeout_millis);
    if (r.ok()) bytes_ += r.value();
    return r;
  }

  Status WriteAll(std::string_view data, int timeout_millis) override {
    if (std::optional<TransportFaultKind> fault = NextFault()) {
      if (fault == TransportFaultKind::kShortWrite) {
        // Half the bytes reach the peer, then the wire dies — the peer
        // sees a mid-frame disconnect, we see the write fail.
        Status st =
            base_->WriteAll(data.substr(0, data.size() / 2), timeout_millis);
        (void)st;
        base_->ShutdownBoth();
        return InjectedIoError("write torn mid-frame, connection reset");
      }
      base_->ShutdownBoth();
      if (fault == TransportFaultKind::kDisconnect) {
        return Status::IoError(
            "injected transport fault: peer closed the connection mid-write");
      }
      return InjectedIoError("write failed, connection reset");
    }
    Status st = base_->WriteAll(data, timeout_millis);
    if (st.ok()) bytes_ += data.size();
    return st;
  }

  void ShutdownBoth() override { base_->ShutdownBoth(); }
  void Close() override { base_->Close(); }
  bool valid() const override { return base_->valid(); }
  const std::string& peer() const override { return base_->peer(); }

 private:
  /// The fault for this connection's next op. Once the byte bound of
  /// drop_after_bytes is crossed, every op finds the peer gone: a
  /// disconnect that is no counted op and counts as one fault.
  std::optional<TransportFaultKind> NextFault() {
    if (!owner_->ShouldDropAfterBytes(bytes_)) return owner_->NextOp();
    if (!dropped_) owner_->CountFault("drop_after_bytes");
    dropped_ = true;
    return TransportFaultKind::kDisconnect;
  }

  FaultInjectingTransport* owner_;
  std::unique_ptr<Connection> base_;
  uint64_t bytes_ = 0;
  bool dropped_ = false;
};

class FaultyListener : public Listener {
 public:
  FaultyListener(FaultInjectingTransport* owner,
                 std::unique_ptr<Listener> base)
      : owner_(owner), base_(std::move(base)) {}

  Result<std::unique_ptr<Connection>> AcceptWithTimeout(
      int timeout_millis) override {
    // Only successful accepts count: poll timeouts happen a
    // scheduling-dependent number of times and must not perturb the op
    // index.
    Result<std::unique_ptr<Connection>> accepted =
        base_->AcceptWithTimeout(timeout_millis);
    if (!accepted.ok()) return accepted;
    if (owner_->NextOp()) {
      // Every failing kind degrades to a refusal here: the accept loop
      // treats kUnavailable as "try again", so an injected fault never
      // looks like the listener itself dying.
      accepted.value()->ShutdownBoth();
      return Status::Unavailable(
          "injected transport fault: connection refused at accept");
    }
    return {std::make_unique<FaultyConnection>(
        owner_, std::move(accepted).value())};
  }

  int bound_port() const override { return base_->bound_port(); }
  void ShutdownBoth() override { base_->ShutdownBoth(); }
  void Close() override { base_->Close(); }

 private:
  FaultInjectingTransport* owner_;
  std::unique_ptr<Listener> base_;
};

FaultInjectingTransport::FaultInjectingTransport(Transport* base)
    : base_(base) {
  if (base_ == nullptr) {
    // Always the *real* TCP transport, never GetTransport(): this
    // wrapper is usually installed AS the process default, and
    // resolving the base through the seam would recurse into itself.
    static TcpTransport* tcp = new TcpTransport();
    base_ = tcp;
  }
}

void FaultInjectingTransport::Arm(const TransportFaultSpec& spec) {
  {
    MutexLock lock(mu_);
    spec_ = spec;
  }
  program_.Arm(spec);
}

void FaultInjectingTransport::Disarm() {
  {
    MutexLock lock(mu_);
    spec_.drop_after_bytes = 0;
  }
  program_.Disarm();
}

Result<std::unique_ptr<Listener>> FaultInjectingTransport::Listen(
    int port, int backlog) {
  TELEIOS_ASSIGN_OR_RETURN(std::unique_ptr<Listener> listener,
                           base_->Listen(port, backlog));
  return {std::make_unique<FaultyListener>(this, std::move(listener))};
}

Result<std::unique_ptr<Connection>> FaultInjectingTransport::Connect(
    const std::string& host, int port) {
  // Every failing kind degrades to a refusal: there is no established
  // stream to tear.
  if (NextOp()) {
    return Status::Unavailable("injected transport fault: connection refused");
  }
  TELEIOS_ASSIGN_OR_RETURN(std::unique_ptr<Connection> conn,
                           base_->Connect(host, port));
  return {std::make_unique<FaultyConnection>(this, std::move(conn))};
}

std::optional<TransportFaultKind> FaultInjectingTransport::NextOp() {
  TransportFaultKind kind;
  int stall_millis;
  {
    MutexLock lock(mu_);
    kind = spec_.kind;
    stall_millis = spec_.stall_millis;
  }
  switch (program_.Next()) {
    case FaultStep::kPass:
      return std::nullopt;
    case FaultStep::kAfterCrash:
      return TransportFaultKind::kIoError;
    case FaultStep::kFire:
      break;
  }
  obs::Count(obs::WithLabel("teleios_transport_faults_injected_total", "kind",
                            TransportFaultKindName(kind)));
  if (kind != TransportFaultKind::kStall) return kind;
  std::this_thread::sleep_for(std::chrono::milliseconds(stall_millis));
  return std::nullopt;
}

bool FaultInjectingTransport::ShouldDropAfterBytes(uint64_t total) {
  MutexLock lock(mu_);
  return spec_.drop_after_bytes > 0 && total >= spec_.drop_after_bytes;
}

void FaultInjectingTransport::CountFault(const char* kind) {
  program_.CountFault();
  obs::Count(
      obs::WithLabel("teleios_transport_faults_injected_total", "kind", kind));
}

}  // namespace teleios::server
