// The three observatory workloads behind one interface; main.cc runs the
// common skeleton (timed set-ups, recovery fixture, untraced phase,
// oracle checks, traced replay, report).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch root inside the checkout
};

/// One operation's turn of its caller's closed loop, housekeeping
/// included; `ok` when it completed. `kind` names the statement kind
/// (a string literal), for the phase-time share per kind.
struct Cycle {
  Clock::time_point start, end;
  bool ok = false;
  const char* kind = "";
};

/// What one closed-loop phase did. Every operation either completed
/// (and its answer is checked) or counts in `errors`.
struct PhaseResult {
  Clock::time_point start, end;
  double wall_s = 0;
  std::vector<Cycle> cycles;
  uint64_t ops = 0;     ///< operations attempted
  uint64_t errors = 0;  ///< errored or shed
  Latencies reads;      ///< send -> last row
  Latencies writes;     ///< send -> acknowledged, WAL-synced
  Latencies scenes;     ///< one acquisition through the NOA chain
  // Normalisers for the per-layer counts.
  uint64_t wire_ops = 0;       ///< statements sent over the wire
  uint64_t strabon_reads = 0;  ///< stSPARQL SELECTs
  uint64_t durable_writes = 0;
  uint64_t user_bytes = 0;     ///< mutation payload submitted
  uint64_t scenes_done = 0;
  /// Benchmark-side atomic file writes (scene inputs), excluded from
  /// io.atomic_writes_per_scene.
  uint64_t input_atomic_writes = 0;

  /// Ends the cycle of kind `kind` begun at `begin`.
  void Done(Clock::time_point begin, bool completed, const char* kind) {
    cycles.push_back({begin, Clock::now(), completed, kind});
    NoteCycleDone();
  }
  /// Folds a caller's part into this phase.
  void Merge(const PhaseResult& part);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates every input from the seed. Untimed: this is the
  /// benchmark's work, not the program's.
  virtual void Prepare() = 0;
  /// Brings a fresh durable observatory under `dir` to ready — the
  /// timed set-up. Replaces any previous state (call TearDown first).
  virtual void SetUp(const std::string& dir) = 0;
  virtual void TearDown() = 0;
  /// Records what the oracles need from the state the last SetUp built.
  /// Untimed, and run before the phase's metrics are reset.
  virtual void SnapshotOracle() {}
  virtual teleios::core::VirtualEarthObservatory& veo() = 0;
  /// The cycle of the phase at which peak_rss_mb is read (see
  /// ArmMemoryProbe); every run reaches it within a few seconds.
  virtual uint64_t MemoryProbeCycles() const = 0;

  /// One closed-loop phase of `seconds` over the current state. With a
  /// tracer, the same seeded operation stream is replayed with one span
  /// per layer boundary.
  virtual PhaseResult Run(double seconds, Tracer* tracer) = 0;
  /// Checks the answers of the last phase against the workload's
  /// oracles; every mismatch is charged to `report`.
  virtual void Check(Report* report) = 0;
};

std::unique_ptr<Workload> MakeArchiveAnalytics(const Options& options);
std::unique_ptr<Workload> MakeSemanticMixed(const Options& options);
std::unique_ptr<Workload> MakeFireChain(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
