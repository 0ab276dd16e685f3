// Shared machinery of the observatory benchmark: seeded inputs, latency
// samples, the metrics-exposition reader, in-memory spans, and the
// result report (human lines + one JSON object as the last stdout line).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/observatory.h"
#include "relational/sql_engine.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

using teleios::Result;
using teleios::Status;
using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// splitmix64: the whole input stream is a function of --seed alone.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Range(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Client-observed latencies of one operation class, in milliseconds,
/// each stamped with its completion time.
class Latencies {
 public:
  void Add(double ms) {
    ms_.push_back(ms);
    at_.push_back(Clock::now());
  }
  void Merge(const Latencies& other);
  size_t size() const { return ms_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// The median over `slices` equal slices of [start, end) of each
  /// slice's q-quantile: a slow spell of the machine that covers less
  /// than half of the slices does not move it.
  double SlicedQuantile(double q, Clock::time_point start,
                        Clock::time_point end, int slices) const;

 private:
  std::vector<double> ms_;
  std::vector<Clock::time_point> at_;
};

/// One reading of MetricsText(), series name (labels included) -> value.
using MetricMap = std::map<std::string, double>;
MetricMap ReadMetrics(const teleios::core::VirtualEarthObservatory& veo);
/// end - start summed over every series of family `base` (any labels).
double Delta(const MetricMap& start, const MetricMap& end,
             const std::string& base);
/// A summary quantile ("0.5", "0.95", "0.99") of family `base` read at
/// `end`; the registry is reset before a measured phase, so it covers
/// only that phase. Series with labels are ignored.
double SummaryQuantile(const MetricMap& end, const std::string& base,
                       const std::string& q);

/// Benchmark-side spans, one per operation per layer boundary, kept in
/// memory and written out when the benchmark ends. A span's self time is
/// its duration minus its children's.
struct Span {
  uint64_t op = 0;      ///< operation id (shared by the op's spans)
  std::string name;     ///< layer boundary, e.g. "wire", "facade"
  std::string parent;   ///< "" for the root span of the operation
  double start_ms = 0;  ///< since the traced phase began
  double dur_ms = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  void Record(uint64_t op, std::string name, std::string parent,
              Clock::time_point start, Clock::time_point end);
  /// Appends every span of `other` (per-thread tracers merge at the end).
  void Merge(const Tracer& other);
  /// Mean duration of spans named `name` (0 when none).
  double Mean(const std::string& name) const;
  size_t Count(const std::string& name) const;
  /// Mean self time of spans named `name`: duration minus the summed
  /// durations of the spans whose parent is `name` in the same op.
  double MeanSelf(const std::string& name) const;
  Status WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  uint64_t samples = 0;  ///< observations behind the value (0 = n/a)
};

/// What one invocation prints.
class Report {
 public:
  void EndToEnd(std::string name, std::string unit, double value,
                uint64_t samples);
  void Layer(std::string name, std::string unit, double value,
             uint64_t samples);
  /// Printed in the human section only (not part of the JSON result).
  void Info(std::string name, std::string unit, double value,
            uint64_t samples);
  /// Records one oracle mismatch (counted in `failed`) with a reason.
  void Mismatch(const std::string& what);
  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Marks the run as wrong without an operation to charge (set-up).
  void Fatal(const std::string& what);
  bool correct() const { return correct_ && failed_ == 0; }

  /// Human-readable lines, then the JSON result as the last line.
  void Print(bool trace) const;

 private:
  std::vector<Metric> e2e_, layer_, info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  size_t mismatches_printed_ = 0;
};

/// A durable observatory served over loopback, plus its clients.
struct Served {
  std::unique_ptr<teleios::core::VirtualEarthObservatory> veo;
  std::unique_ptr<teleios::server::TeleiosServer> server;
  std::vector<teleios::server::Client> clients;
  std::string dir;
};

/// Starts a server with the program's defaults on an ephemeral port and
/// connects `connections` clients.
Status Serve(Served* served, int connections);
/// Stops the server (drain) and drops the observatory.
void Shutdown(Served* served);

/// One read statement over the wire. Untraced (`tracer` null) it is just
/// Client::Query. Traced, the same statement also runs through the
/// facade in process, directly on its engine (`sql` for SQL, the facade's
/// sciql()/strabon() otherwise) and through server::EncodeTable, one span
/// each: wire > {facade > engine, encode}. SQL statements are also
/// PROFILEd, giving spans relational.filter / .aggregate / .materialize.
/// Returns the wire answer.
Result<teleios::storage::Table> WireRead(
    teleios::server::Client& client, teleios::server::Lang lang,
    const std::string& statement, uint64_t op, Tracer* tracer,
    teleios::core::VirtualEarthObservatory& veo,
    teleios::relational::SqlEngine& sql);

/// The process's peak resident set so far, in MiB.
double PeakRssMb();
/// Arms the memory probe: PeakRssMb() is read when the `ops`-th cycle
/// after arming ends (any caller's), so peak_rss_mb covers a fixed
/// amount of work and does not follow throughput. 0 disarms.
void ArmMemoryProbe(uint64_t ops);
/// Ticks the probe; PhaseResult::Done calls it for every cycle.
void NoteCycleDone();
/// The peak read by the probe; 0 when its cycle was not reached.
double MemoryProbeMb();

/// Flushes every dirty page to disk, so a timed step that fsyncs does not
/// pay for writing files the benchmark itself just created.
void Quiesce();

/// Copies a directory tree (recovery fixtures are opened on copies so
/// each Open sees the same bytes).
Status CopyTree(const std::string& from, const std::string& to);

/// Fails the whole run on a set-up error.
#define PB_CHECK_OK(expr)                                              \
  do {                                                                 \
    auto _st = (expr);                                                 \
    if (!_st.ok()) {                                                   \
      ::perfbench::Die(#expr, ::perfbench::StatusOf(_st).ToString()); \
    }                                                                  \
  } while (0)

[[noreturn]] void Die(const std::string& what, const std::string& why);
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
