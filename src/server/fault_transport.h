#ifndef TELEIOS_SERVER_FAULT_TRANSPORT_H_
#define TELEIOS_SERVER_FAULT_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/fault_program.h"
#include "common/thread_annotations.h"
#include "server/transport.h"

namespace teleios::server {

/// What goes wrong when the armed fault fires — the wire-level
/// counterpart of io::FaultKind.
enum class TransportFaultKind {
  /// The op fails with a generic IoError and the connection dies (a
  /// reset under the caller's feet).
  kIoError,
  /// A write delivers only the first half of its bytes, then the
  /// connection is torn down — the peer sees a mid-frame disconnect.
  /// Non-write ops fail with IoError.
  kShortWrite,
  /// A read delivers what is available, then the connection is torn
  /// down — the caller sees kDataLoss mid-message (or kUnavailable when
  /// nothing had arrived yet). Non-read ops fail with IoError.
  kShortRead,
  /// The connection is shut down cleanly: the op's peer sees EOF, the
  /// op itself fails (reads kUnavailable, writes kIoError).
  kDisconnect,
  /// A Connect fails kUnavailable ("connection refused"); other ops
  /// degrade to kIoError.
  kConnectRefused,
  /// The op sleeps `stall_millis`, then proceeds normally — a network
  /// hiccup for exercising timeouts without failing anything.
  kStall,
};

const char* TransportFaultKindName(TransportFaultKind kind);

/// A deterministic fault program over counted transport operations (run
/// by a FaultProgram, like io::FaultSpec): the `inject_at`-th counted op
/// after Arm() misbehaves per `kind`; with `every_n` > 0 the fault
/// repeats every `every_n` ops after that (fault-rate benchmarks); with
/// `crash` every op after the first fault fails too (except accepts and
/// connects, which stay merely unavailable so a server's accept loop
/// survives its own network dying).
struct TransportFaultSpec {
  TransportFaultKind kind = TransportFaultKind::kDisconnect;
  uint64_t inject_at = 1;  // 1-based op index; 0 disables
  uint64_t every_n = 0;
  bool crash = false;
  /// kStall sleep length.
  int stall_millis = 50;
  /// Independent of the op program: when > 0, each connection dies at
  /// its first I/O op after its cumulative read+write byte count passes
  /// this — mid-stream disconnects placed by byte position instead of
  /// op index.
  uint64_t drop_after_bytes = 0;
};

/// Wraps any Transport and injects deterministic faults per an armed
/// TransportFaultSpec; disarmed it is a transparent pass-through that
/// still counts operations (the probe run of a kill-at-every-op sweep).
/// Every injected fault counts `teleios_transport_faults_injected_total`
/// (labeled by kind).
///
/// Counted operations: Connect, successful Accept, ReadExact, ReadSome,
/// WriteAll — on every connection made through this transport, client
/// and server side alike. Accept/read timeouts are NOT counted: they
/// happen a nondeterministic number of times (poll slices), and
/// counting them would make "fail the k-th op" irreproducible.
///
/// The transport must outlive every Listener and Connection it handed
/// out (test scope does this naturally).
class FaultInjectingTransport : public Transport {
 public:
  /// `base` must outlive this wrapper. Defaults to the real TCP
  /// transport.
  explicit FaultInjectingTransport(Transport* base = nullptr);

  /// Installs `spec` and resets the operation counter.
  void Arm(const TransportFaultSpec& spec);
  /// Back to pass-through, byte-position drops included (op counter
  /// keeps its value).
  void Disarm();

  /// Operations counted since the last Arm() (or construction).
  uint64_t ops() const { return program_.ops(); }
  /// Faults injected since the last Arm().
  uint64_t faults_injected() const { return program_.faults(); }

  Result<std::unique_ptr<Listener>> Listen(int port, int backlog) override;
  Result<std::unique_ptr<Connection>> Connect(const std::string& host,
                                              int port) override;

 private:
  friend class FaultyConnection;
  friend class FaultyListener;

  /// Counts one operation and decides its fate: nullopt when it goes
  /// ahead (after sleeping, for a kStall), else the kind of fault to
  /// apply — kIoError for every op after a crash. Connects and accepts
  /// turn any fault into a refusal.
  std::optional<TransportFaultKind> NextOp() TELEIOS_EXCLUDES(mu_);
  /// drop_after_bytes bookkeeping: true once `total` crossed the bound.
  bool ShouldDropAfterBytes(uint64_t total) TELEIOS_EXCLUDES(mu_);
  void CountFault(const char* kind);

  Transport* base_;
  FaultProgram program_;
  /// Guards the armed spec.
  mutable Mutex mu_;
  TransportFaultSpec spec_ TELEIOS_GUARDED_BY(mu_);
};

}  // namespace teleios::server

#endif  // TELEIOS_SERVER_FAULT_TRANSPORT_H_
