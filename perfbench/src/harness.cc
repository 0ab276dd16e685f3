#include "harness.h"

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

namespace fs = std::filesystem;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Latencies::Merge(const Latencies& other) {
  ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
  at_.insert(at_.end(), other.at_.begin(), other.at_.end());
}

double Latencies::SlicedQuantile(double q, Clock::time_point start,
                                 Clock::time_point end, int slices) const {
  std::vector<Latencies> per(static_cast<size_t>(slices));
  double total = std::chrono::duration<double>(end - start).count();
  for (size_t i = 0; i < ms_.size(); ++i) {
    double at = std::chrono::duration<double>(at_[i] - start).count();
    int slice = std::clamp(static_cast<int>(at / total * slices), 0, slices - 1);
    per[static_cast<size_t>(slice)].ms_.push_back(ms_[i]);
  }
  Latencies quantiles;
  for (const Latencies& slice : per) {
    if (slice.size() > 0) quantiles.ms_.push_back(slice.Quantile(q));
  }
  return quantiles.Quantile(0.5);
}

double Latencies::Quantile(double q) const {
  if (ms_.empty()) return 0;
  std::vector<double> sorted = ms_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

MetricMap ReadMetrics(const teleios::core::VirtualEarthObservatory& veo) {
  MetricMap out;
  std::istringstream in(veo.MetricsText());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

namespace {

/// True when series `name` belongs to family `base` (exact, or `base{`).
bool InFamily(const std::string& name, const std::string& base) {
  if (name.compare(0, base.size(), base) != 0) return false;
  return name.size() == base.size() || name[base.size()] == '{';
}

double SumFamily(const MetricMap& m, const std::string& base) {
  double sum = 0;
  for (auto it = m.lower_bound(base); it != m.end(); ++it) {
    if (it->first.compare(0, base.size(), base) != 0) break;
    if (InFamily(it->first, base)) sum += it->second;
  }
  return sum;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double Delta(const MetricMap& start, const MetricMap& end,
             const std::string& base) {
  return SumFamily(end, base) - SumFamily(start, base);
}

double SummaryQuantile(const MetricMap& end, const std::string& base,
                       const std::string& q) {
  auto it = end.find(base + "{quantile=\"" + q + "\"}");
  return it == end.end() ? 0 : it->second;
}

void Tracer::Record(uint64_t op, std::string name, std::string parent,
                    Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{op, std::move(name), std::move(parent),
                        MsBetween(origin_, start), MsBetween(start, end)});
}

void Tracer::Merge(const Tracer& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

double Tracer::Mean(const std::string& name) const {
  double sum = 0;
  size_t n = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      sum += s.dur_ms;
      ++n;
    }
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

size_t Tracer::Count(const std::string& name) const {
  return static_cast<size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& s) { return s.name == name; }));
}

double Tracer::MeanSelf(const std::string& name) const {
  std::map<uint64_t, double> self;
  for (const Span& s : spans_) {
    if (s.name == name) self[s.op] += s.dur_ms;
  }
  for (const Span& s : spans_) {
    if (s.parent == name && self.count(s.op) != 0) self[s.op] -= s.dur_ms;
  }
  if (self.empty()) return 0;
  double sum = 0;
  for (const auto& [op, ms] : self) sum += ms;
  return sum / static_cast<double>(self.size());
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write " + path);
  for (const Span& s : spans_) {
    out << "{\"op\":" << s.op << ",\"name\":\"" << JsonEscape(s.name)
        << "\",\"parent\":\"" << JsonEscape(s.parent)
        << "\",\"start_ms\":" << Number(s.start_ms)
        << ",\"dur_ms\":" << Number(s.dur_ms) << "}\n";
  }
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

void Report::EndToEnd(std::string name, std::string unit, double value,
                      uint64_t samples) {
  e2e_.push_back({std::move(name), std::move(unit), value, samples});
}

void Report::Layer(std::string name, std::string unit, double value,
                   uint64_t samples) {
  layer_.push_back({std::move(name), std::move(unit), value, samples});
}

void Report::Info(std::string name, std::string unit, double value,
                  uint64_t samples) {
  info_.push_back({std::move(name), std::move(unit), value, samples});
}

void Report::Mismatch(const std::string& what) {
  ++failed_;
  // Enough to diagnose; a systematic defect would otherwise flood.
  if (mismatches_printed_++ < 20) {
    std::fprintf(stderr, "perfbench: oracle mismatch: %s\n", what.c_str());
  }
}

void Report::Fatal(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::Print(bool trace) const {
  auto print = [](const char* kind, const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
      std::printf("%-10s %-32s %16.6f %-8s n=%" PRIu64 "\n", kind,
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    }
  };
  print("end_to_end", e2e_);
  print("info", info_);
  print("per_layer", layer_);
  std::printf("attempted=%" PRIu64 " failed=%" PRIu64 " failed_frac=%s\n",
              attempted_, failed_,
              Number(attempted_ == 0 ? 0
                                     : static_cast<double>(failed_) /
                                           static_cast<double>(attempted_))
                  .c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : trace ? layer_ : e2e_) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Status Serve(Served* served, int connections) {
  teleios::server::ServerConfig config =
      teleios::server::ServerConfig::FromEnv();
  config.port = 0;  // ephemeral loopback port
  served->server = std::make_unique<teleios::server::TeleiosServer>(
      served->veo.get(), config);
  TELEIOS_RETURN_IF_ERROR(served->server->Start());
  for (int i = 0; i < connections; ++i) {
    TELEIOS_ASSIGN_OR_RETURN(
        teleios::server::Client client,
        teleios::server::Client::Connect("127.0.0.1", served->server->port()));
    served->clients.push_back(std::move(client));
  }
  return Status::OK();
}

void Shutdown(Served* served) {
  for (teleios::server::Client& c : served->clients) (void)c.Goodbye();
  served->clients.clear();
  if (served->server != nullptr) {
    Status st = served->server->Shutdown();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: server shutdown: %s\n",
                   st.ToString().c_str());
    }
    served->server.reset();
  }
  served->veo.reset();
}

namespace {

/// Records the relational spans of a PROFILE table (span, depth, millis,
/// detail; pre-order). materialize = the execute span's self time (the
/// base-table copy) plus the part of "filter" outside its kernel
/// (exec.filter), i.e. rows moved rather than tested.
void RecordProfile(const teleios::storage::Table& profile, uint64_t op,
                   Clock::time_point at, Tracer* tracer) {
  double filter = 0, filter_kernel = 0, aggregate = 0, execute = 0,
         execute_children = 0;
  int execute_depth = -1;
  for (size_t r = 0; r < profile.num_rows(); ++r) {
    const std::string& name = profile.column(0).GetString(r);
    int depth = static_cast<int>(profile.column(1).GetInt64(r));
    double ms = profile.column(2).GetFloat64(r);
    if (name == "execute") {
      execute += ms;
      execute_depth = depth;
    } else if (execute_depth >= 0 && depth == execute_depth + 1) {
      execute_children += ms;
    }
    if (name == "filter") filter += ms;
    if (name == "exec.filter") filter_kernel += ms;
    if (name == "aggregate") aggregate += ms;
  }
  auto span = [&](const char* name, double ms) {
    auto end = at + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
    tracer->Record(op, name, "profile", at, end);
  };
  span("relational.filter", filter);
  span("relational.aggregate", aggregate);
  span("relational.materialize",
       (execute - execute_children) + (filter - filter_kernel));
}

}  // namespace

Result<teleios::storage::Table> WireRead(
    teleios::server::Client& client, teleios::server::Lang lang,
    const std::string& statement, uint64_t op, Tracer* tracer,
    teleios::core::VirtualEarthObservatory& veo,
    teleios::relational::SqlEngine& sql) {
  using teleios::server::Lang;
  if (tracer == nullptr) return client.Query(lang, statement);

  auto t0 = Clock::now();
  Result<teleios::storage::Table> wire = client.Query(lang, statement);
  auto t1 = Clock::now();
  Result<teleios::storage::Table> facade =
      lang == Lang::kSql     ? veo.Sql(statement)
      : lang == Lang::kSciQl ? veo.SciQl(statement)
                             : veo.StSparql(statement);
  auto t2 = Clock::now();
  Result<teleios::storage::Table> engine =
      lang == Lang::kSql     ? sql.Execute(statement)
      : lang == Lang::kSciQl ? veo.sciql().Execute(statement)
                             : veo.strabon().Query(statement);
  auto t3 = Clock::now();
  // 1024 rows per frame: the server's default chunk size.
  if (engine.ok()) (void)teleios::server::EncodeTable(*engine, 1024).size();
  auto t4 = Clock::now();
  const char* engine_span = lang == Lang::kSql     ? "engine.sql"
                            : lang == Lang::kSciQl ? "engine.sciql"
                                                   : "engine.strabon";
  // The in-process runs stand for the work the server does inside the
  // wire call, so they are the wire span's children: subtracting them
  // leaves the wire's own cost (session, framing, socket) as self time.
  tracer->Record(op, "wire", "", t0, t1);
  tracer->Record(op, "facade", "wire", t1, t2);
  tracer->Record(op, engine_span, "facade", t2, t3);
  tracer->Record(op, "encode", "wire", t3, t4);
  if (lang == Lang::kSql) {
    auto p0 = Clock::now();
    Result<teleios::storage::Table> profile = veo.Sql("PROFILE " + statement);
    if (profile.ok()) RecordProfile(*profile, op, p0, tracer);
  }
  if (!facade.ok()) return facade.status();
  if (!engine.ok()) return engine.status();
  return wire;
}

void PhaseResult::Merge(const PhaseResult& part) {
  cycles.insert(cycles.end(), part.cycles.begin(), part.cycles.end());
  ops += part.ops;
  errors += part.errors;
  reads.Merge(part.reads);
  writes.Merge(part.writes);
  scenes.Merge(part.scenes);
  wire_ops += part.wire_ops;
  strabon_reads += part.strabon_reads;
  durable_writes += part.durable_writes;
  user_bytes += part.user_bytes;
  scenes_done += part.scenes_done;
  input_atomic_writes += part.input_atomic_writes;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {
std::atomic<uint64_t> probe_target{0};
std::atomic<uint64_t> probe_cycles{0};
std::atomic<double> probe_mb{0};
}  // namespace

void ArmMemoryProbe(uint64_t ops) {
  probe_target = 0;
  probe_cycles = 0;
  probe_mb = 0;
  probe_target = ops;
}

void NoteCycleDone() {
  uint64_t target = probe_target.load(std::memory_order_relaxed);
  if (target != 0 && probe_cycles.fetch_add(1) + 1 == target) {
    probe_mb = PeakRssMb();
  }
}

double MemoryProbeMb() { return probe_mb; }

void Quiesce() { ::sync(); }

Status CopyTree(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) return Status::IoError("copy " + from + " -> " + to + ": " + ec.message());
  return Status::OK();
}

void Die(const std::string& what, const std::string& why) {
  std::fprintf(stderr, "perfbench: fatal: %s: %s\n", what.c_str(), why.c_str());
  std::fflush(stderr);
  // No result line: the run is invalid. _Exit skips destructors that
  // would join server threads still parked on sockets.
  std::_Exit(2);
}

}  // namespace perfbench
