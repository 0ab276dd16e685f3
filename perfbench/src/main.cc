// teleios_perfbench: the observatory's end-to-end benchmark.
//
//   teleios_perfbench --workload <archive_analytics|semantic_mixed|fire_chain>
//                     --seed <n> --seconds <s> --trace <0|1> [--work-dir <d>]
//
// One invocation: generate the seeded inputs, set the workload's durable
// observatory up several times (setup_s is the median), time recovery of
// a fixed seed-generated snapshot + WAL tail (recovery_s), run the
// closed-loop phase untraced, check every answer against its oracle, and
// with --trace 1 replay the same operation stream traced for the
// per-layer numbers. Human-readable lines first; the last stdout line is
// the JSON result.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Timed set-ups and recovery opens, all before the phase: from a fresh
// process, as a restarted observatory would run them. (Run after the
// phase, they reuse the heap the phase grew and read ~15% faster.)
constexpr int kSetups = 15;
constexpr int kRecoveryOpens = 8;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: teleios_perfbench --workload "
               "<archive_analytics|semantic_mixed|fire_chain> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  opt.work_dir = ".bench_build/work-" + std::to_string(getpid());
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + key);
    std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || opt.seconds <= 0) Usage("bad --seconds " + value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      opt.trace = value == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else {
      Usage("unknown argument " + key);
    }
  }
  if (opt.workload.empty()) Usage("--workload is required");
  return opt;
}

void PrintFingerprint(const Options& opt) {
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("machine nproc=%u compiler=\"%s\" build_type=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::string knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TELEIOS_", 8) == 0) knobs += std::string(" ") + *e;
  }
  std::printf("teleios_env:%s\n", knobs.empty() ? " (none)" : knobs.c_str());
  std::printf(
      "caveat: files live in the page cache and fsync cost is this "
      "sandbox's; latencies are not a storage device's\n");
}

/// recovery_s: Open() of a fixed seed-generated durable state — a
/// catalog snapshot plus a WAL tail of SQL inserts and stSPARQL updates —
/// built before any timed phase, so its work never depends on the
/// workload's throughput.
class RecoveryFixture {
 public:
  static constexpr int kSnapshotRows = 50'000;
  static constexpr int kTailStatements = 400;
  static constexpr int kRowsPerTailStatement = 50;
  static constexpr int kTailUpdates = 100;
  static constexpr int kPointsPerUpdate = 5;

  explicit RecoveryFixture(const Options& opt)
      : dir_(opt.work_dir + "/recovery-fixture") {
    Rng rng(opt.seed ^ 0x7265636f76657279ull);
    auto rows_insert = [&](int first_id, int rows) {
      std::string insert = "INSERT INTO log VALUES ";
      for (int i = 0; i < rows; ++i) {
        char row[96];
        std::snprintf(row, sizeof(row), "%s(%d, 'B%02d', %.3f)",
                      i == 0 ? "" : ", ", first_id + i,
                      static_cast<int>(rng.Below(12)), rng.Range(200, 330));
        insert += row;
      }
      return insert;
    };
    teleios::core::VirtualEarthObservatory veo;
    PB_CHECK_OK(veo.Open(dir_));
    PB_CHECK_OK(
        veo.Sql("CREATE TABLE log (id INT, band VARCHAR, value DOUBLE)"));
    for (int id = 0; id < kSnapshotRows; id += 500) {
      PB_CHECK_OK(veo.Sql(rows_insert(id, 500)));
    }
    PB_CHECK_OK(veo.Checkpoint());
    for (int i = 0; i < kTailStatements; ++i) {
      PB_CHECK_OK(veo.Sql(rows_insert(
          kSnapshotRows + i * kRowsPerTailStatement, kRowsPerTailStatement)));
    }
    for (int i = 0; i < kTailUpdates; ++i) {
      std::string update = "INSERT DATA { ";
      for (int k = 0; k < kPointsPerUpdate; ++k) {
        char triple[192];
        std::snprintf(triple, sizeof(triple),
                      "<http://bench.teleios/recovery/r%d> a noa:Annotation ; "
                      "noa:hasGeometry \"POINT (%.5f %.5f)\"^^strdf:WKT . ",
                      i * kPointsPerUpdate + k, rng.Range(21, 23.5),
                      rng.Range(36.2, 38.5));
        update += triple;
      }
      PB_CHECK_OK(veo.StSparqlUpdate(update + "}"));
    }
    // Dropped without a checkpoint: the tail stays in the log.
  }

  ~RecoveryFixture() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  RecoveryFixture(const RecoveryFixture&) = delete;
  RecoveryFixture& operator=(const RecoveryFixture&) = delete;

  /// Times one Open() and checks that it recovered the whole fixture.
  /// Open only adds an empty log segment, so every Open replays the same
  /// records.
  void TimeOpen(Report* report) {
    teleios::core::VirtualEarthObservatory veo;
    Quiesce();
    auto t0 = Clock::now();
    PB_CHECK_OK(veo.Open(dir_));
    seconds_.Add(MsSince(t0) / 1000.0);
    uint64_t replayed = veo.recovery_report().records_replayed;
    if (replayed_ != 0 && replayed != replayed_) {
      report->Fatal("recovery fixture replayed a different log");
    }
    replayed_ = replayed;
    auto rows = veo.Sql("SELECT count(*) AS n FROM log");
    auto notes = veo.StSparql("SELECT ?a WHERE { ?a a noa:Annotation }");
    if (!rows.ok() ||
        rows->column(0).GetInt64(0) !=
            kSnapshotRows + kTailStatements * kRowsPerTailStatement) {
      report->Fatal("recovery fixture lost SQL rows");
    }
    if (!notes.ok() ||
        notes->num_rows() != kTailUpdates * kPointsPerUpdate) {
      report->Fatal("recovery fixture lost stSPARQL updates");
    }
  }

  const Latencies& seconds() const { return seconds_; }
  uint64_t replayed() const { return replayed_; }

 private:
  const std::string dir_;
  Latencies seconds_;
  uint64_t replayed_ = 0;
};

/// Every per-layer metric, in one fixed order for every workload; a
/// layer the workload bypasses reads 0.
void EmitLayers(const PhaseResult& phase, const PhaseResult& traced,
                const MetricMap& start, const MetricMap& end,
                const Tracer& tracer, const RecoveryFixture& recovery,
                Report* report) {
  auto per = [](double n, double d) { return d <= 0 ? 0.0 : n / d; };
  auto delta = [&](const char* base) { return Delta(start, end, base); };
  const double ops = static_cast<double>(phase.ops);
  const double reads = static_cast<double>(phase.strabon_reads);
  const double writes = static_cast<double>(phase.durable_writes);
  const double scenes = static_cast<double>(phase.scenes_done);
  const uint64_t traced_ops = traced.ops;

  report->Layer("server.wire_self_ms", "ms", tracer.MeanSelf("wire"),
                tracer.Count("wire"));
  report->Layer("server.encode_ms", "ms", tracer.Mean("encode"),
                tracer.Count("encode"));
  report->Layer("server.bytes_out_per_op", "bytes",
                per(delta("teleios_server_bytes_out_total"),
                    static_cast<double>(phase.wire_ops)),
                phase.wire_ops);
  report->Layer("core.facade_self_ms", "ms", tracer.MeanSelf("facade"),
                tracer.Count("facade"));
  report->Layer("core.durable_write_ms", "ms", tracer.Mean("facade.write"),
                tracer.Count("facade.write"));
  report->Layer("core.recovery_replay_records", "count",
                static_cast<double>(recovery.replayed()),
                recovery.seconds().size());
  report->Layer("governor.admit_wait_ms", "ms",
                SummaryQuantile(end, "teleios_governor_admission_wait_millis",
                                "0.99"),
                phase.ops);
  report->Layer("governor.sheds", "count",
                delta("teleios_governor_admission_shed_total") +
                    delta("teleios_governor_admission_timeout_total") +
                    delta("teleios_server_sheds_total"),
                phase.ops);
  report->Layer("relational.execute_ms", "ms", tracer.Mean("engine.sql"),
                tracer.Count("engine.sql"));
  report->Layer("relational.filter_ms", "ms",
                tracer.Mean("relational.filter"),
                tracer.Count("relational.filter"));
  report->Layer("relational.materialize_ms", "ms",
                tracer.Mean("relational.materialize"),
                tracer.Count("relational.materialize"));
  report->Layer("relational.aggregate_ms", "ms",
                tracer.Mean("relational.aggregate"),
                tracer.Count("relational.aggregate"));
  report->Layer("relational.rows_emitted_per_op", "rows",
                per(delta("teleios_relational_rows_emitted_total"), ops),
                phase.ops);
  report->Layer("storage.dict_interned_per_op", "count",
                per(delta("teleios_storage_dict_interned_total"), ops),
                phase.ops);
  report->Layer("exec.tasks_per_op", "count",
                per(delta("teleios_exec_tasks_total"), ops), phase.ops);
  report->Layer("exec.steals_per_op", "count",
                per(delta("teleios_exec_steals_total"), ops), phase.ops);
  report->Layer("exec.schedule_ms", "ms",
                per(delta("teleios_exec_schedule_millis_sum"), ops),
                phase.ops);
  report->Layer("sciql.execute_ms", "ms", tracer.Mean("engine.sciql"),
                tracer.Count("engine.sciql"));
  report->Layer("sciql.cells_per_op", "cells",
                per(delta("teleios_sciql_cells_materialized_total"), ops),
                phase.ops);
  report->Layer("strabon.query_ms", "ms", tracer.Mean("engine.strabon"),
                tracer.Count("engine.strabon"));
  double wkt_hits = delta("teleios_strabon_wkt_cache_hits_total");
  report->Layer("strabon.wkt_cache_hit_ratio", "ratio",
                per(wkt_hits, wkt_hits + delta("teleios_strabon_wkt_parses_total")),
                phase.strabon_reads);
  report->Layer("strabon.rtree_probes_per_read", "count",
                per(delta("teleios_strabon_rtree_probes_total"), reads),
                phase.strabon_reads);
  report->Layer("strabon.index_builds_per_read", "count",
                per(delta("teleios_strabon_index_builds_total"), reads),
                phase.strabon_reads);
  report->Layer("strabon.index_build_ms", "ms",
                per(delta("teleios_strabon_index_build_millis_sum"),
                    delta("teleios_strabon_index_build_millis_count")),
                static_cast<uint64_t>(
                    delta("teleios_strabon_index_build_millis_count")));
  report->Layer("io.wal_syncs_per_write", "count",
                per(delta("teleios_wal_syncs_total"), writes),
                phase.durable_writes);
  report->Layer("io.wal_bytes_per_user_byte", "ratio",
                per(delta("teleios_wal_bytes_synced_total"),
                    static_cast<double>(phase.user_bytes)),
                phase.durable_writes);
  report->Layer("io.checkpoints", "count", delta("teleios_wal_checkpoints_total"),
                phase.ops);
  report->Layer("io.atomic_writes_per_scene", "count",
                per(delta("teleios_io_atomic_writes_total") -
                        static_cast<double>(phase.input_atomic_writes),
                    scenes),
                phase.scenes_done);
  report->Layer("vault.ingest_ms", "ms",
                per(delta("teleios_vault_ingest_millis_sum"),
                    delta("teleios_vault_ingest_millis_count")),
                static_cast<uint64_t>(delta("teleios_vault_ingest_millis_count")));
  report->Layer("vault.bytes_per_scene", "bytes",
                per(delta("teleios_vault_bytes_materialized_total"), scenes),
                phase.scenes_done);
  double vault_hits = delta("teleios_vault_cache_hits_total");
  report->Layer("vault.cache_hit_ratio", "ratio",
                per(vault_hits,
                    vault_hits + delta("teleios_vault_rasters_ingested_total")),
                phase.scenes_done);
  for (const char* stage : {"ingestion", "classification",
                            "hotspot_extraction", "publication"}) {
    std::string span = std::string("noa.stage.") + stage;
    report->Layer("noa.stage_ms." + std::string(stage), "ms",
                  tracer.Mean(span), tracer.Count(span));
  }
  report->Layer("noa.refine_ms", "ms", tracer.Mean("noa.refine"),
                tracer.Count("noa.refine"));
  report->Layer("noa.hotspots_per_scene", "count",
                per(delta("teleios_noa_hotspots_extracted_total"), scenes),
                phase.scenes_done);
  report->Layer("mining.patches_ms", "ms", tracer.Mean("mining.patches"),
                tracer.Count("mining.patches"));
  report->Layer("mining.annotate_ms", "ms", tracer.Mean("mining.annotate"),
                tracer.Count("mining.annotate"));
  report->Layer("mining.publish_ms", "ms", tracer.Mean("mining.publish"),
                tracer.Count("mining.publish"));
  double untraced_rate = per(ops, phase.wall_s);
  double traced_rate = per(static_cast<double>(traced_ops), traced.wall_s);
  report->Layer("obs.trace_overhead_frac", "ratio",
                untraced_rate <= 0 ? 0 : 1.0 - traced_rate / untraced_rate,
                traced_ops);
}

/// throughput_ops_s: completed operations per second of busy time (time
/// in which at least one cycle was in progress), as the median of the
/// rates in kWindows equal slices of the phase. Each cycle counts in a
/// slice by the share of its interval inside it, so the rate is
/// continuous even when operations are long; the median keeps a slow
/// spell of the machine in a few slices from moving it. Time between
/// cycles (fire_chain writing its next input) is not busy time.
constexpr int kWindows = 20;

double Throughput(const PhaseResult& phase) {
  auto at = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - phase.start).count();
  };
  double width = at(phase.end) / kWindows;
  std::vector<double> work(kWindows, 0.0), busy(kWindows, 0.0);
  auto spread = [&](double a, double b, std::vector<double>* into,
                    double per_s) {
    for (int w = 0; w < kWindows; ++w) {
      double lo = std::max(a, w * width), hi = std::min(b, (w + 1) * width);
      if (hi > lo) (*into)[w] += (hi - lo) * per_s;
    }
  };
  std::vector<std::pair<double, double>> spans;
  for (const Cycle& c : phase.cycles) {
    double a = at(c.start), b = at(c.end);
    spans.emplace_back(a, b);
    if (c.ok) spread(a, b, &work, 1.0 / std::max(b - a, 1e-9));
  }
  // The union of the cycles' intervals is the busy time.
  std::sort(spans.begin(), spans.end());
  for (size_t i = 0; i < spans.size();) {
    double a = spans[i].first, b = spans[i].second;
    for (++i; i < spans.size() && spans[i].first <= b; ++i) {
      b = std::max(b, spans[i].second);
    }
    spread(a, b, &busy, 1.0);
  }
  Latencies rates;
  for (int w = 0; w < kWindows; ++w) {
    if (busy[w] > 0) rates.Add(work[w] / busy[w]);
  }
  return rates.Quantile(0.5);
}

/// The share of the callers' cycle time spent on each statement kind:
/// what the workload's mix actually exercises.
void EmitKindShares(const PhaseResult& phase, Report* report) {
  std::map<std::string, std::pair<double, uint64_t>> by_kind;
  double total = 0;
  for (const Cycle& c : phase.cycles) {
    double s = std::chrono::duration<double>(c.end - c.start).count();
    auto& [seconds, n] = by_kind[c.kind];
    seconds += s;
    ++n;
    total += s;
  }
  for (const auto& [kind, entry] : by_kind) {
    report->Info("time_share." + kind, "frac",
                 total <= 0 ? 0 : entry.first / total, entry.second);
  }
}

std::unique_ptr<Workload> MakeWorkload(const Options& opt) {
  if (opt.workload == "archive_analytics") return MakeArchiveAnalytics(opt);
  if (opt.workload == "semantic_mixed") return MakeSemanticMixed(opt);
  if (opt.workload == "fire_chain") return MakeFireChain(opt);
  Usage("unknown workload " + opt.workload);
}

int Main(int argc, char** argv) {
  Options opt = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(opt);
  PrintFingerprint(opt);
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  fs::create_directories(opt.work_dir, ec);
  if (ec) Die("create " + opt.work_dir, ec.message());

  Report report;
  RecoveryFixture recovery(opt);
  for (int i = 0; i < kRecoveryOpens; ++i) recovery.TimeOpen(&report);
  workload->Prepare();

  // setup_s: the median of fresh set-ups. The phase starts right after
  // the last one (an idle session would otherwise run into the server's
  // lease).
  Latencies setup;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) workload->TearDown();
    Quiesce();
    auto t0 = Clock::now();
    workload->SetUp(opt.work_dir + "/state-" + std::to_string(i));
    setup.Add(MsSince(t0) / 1000.0);
  }
  workload->SnapshotOracle();

  // With --trace 1 the run is split: half untraced (counts, overhead
  // baseline), half traced replay of the same operation stream.
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Quiesce();
  teleios::obs::MetricsRegistry::Global().Reset();
  MetricMap start = ReadMetrics(workload->veo());
  // peak_rss_mb: the high-water mark of the program's set-ups and of a
  // fixed number of the phase's cycles (plus the generated inputs),
  // read before any oracle runs.
  ArmMemoryProbe(workload->MemoryProbeCycles());
  PhaseResult phase = workload->Run(phase_s, nullptr);
  MetricMap end = ReadMetrics(workload->veo());
  double peak_rss_mb = MemoryProbeMb();
  uint64_t probe_cycles = workload->MemoryProbeCycles();
  if (peak_rss_mb == 0) {
    std::fprintf(stderr,
                 "perfbench: the phase ended before cycle %llu; "
                 "peak_rss_mb is read at its end\n",
                 static_cast<unsigned long long>(probe_cycles));
    peak_rss_mb = PeakRssMb();
    probe_cycles = phase.cycles.size();
  }
  ArmMemoryProbe(0);
  report.AddAttempted(phase.ops);
  report.AddFailed(phase.errors);
  workload->Check(&report);

  report.EndToEnd("setup_s", "s", setup.Quantile(0.5), setup.size());
  report.EndToEnd("throughput_ops_s", "1/s", Throughput(phase), phase.ops);
  report.EndToEnd(
      "read_p50_ms", "ms",
      phase.reads.SlicedQuantile(0.5, phase.start, phase.end, kWindows),
      phase.reads.size());
  // Sliced like the median: over the whole phase, the few reads that one
  // slow spell of the machine preempts set the p99 by themselves.
  report.EndToEnd(
      "read_p99_ms", "ms",
      phase.reads.SlicedQuantile(0.99, phase.start, phase.end, kWindows),
      phase.reads.size());
  // Printed, not gated: its opens take under a second, and between runs
  // their median swings with the machine by more than any bound allows.
  report.Info("recovery_s", "s", recovery.seconds().Quantile(0.5),
              recovery.seconds().size());
  if (phase.writes.size() > 0) {
    report.Info("write_p50_ms", "ms", phase.writes.Quantile(0.5),
                phase.writes.size());
    report.Info("write_p99_ms", "ms", phase.writes.Quantile(0.99),
                phase.writes.size());
  }
  if (phase.scenes.size() > 0) {
    report.Info("scene_p50_ms", "ms", phase.scenes.Quantile(0.5),
                phase.scenes.size());
    report.Info("scene_p90_ms", "ms", phase.scenes.Quantile(0.9),
                phase.scenes.size());
  }
  EmitKindShares(phase, &report);

  if (opt.trace) {
    workload->TearDown();
    workload->SetUp(opt.work_dir + "/state-traced");
    workload->SnapshotOracle();
    Quiesce();
    Tracer tracer(Clock::now());
    PhaseResult traced = workload->Run(phase_s, &tracer);
    report.AddAttempted(traced.ops);
    report.AddFailed(traced.errors);
    workload->Check(&report);
    EmitLayers(phase, traced, start, end, tracer, recovery, &report);
    fs::create_directories(".bench_build/traces", ec);
    Status written = tracer.WriteJsonLines(
        ".bench_build/traces/" + opt.workload + "-seed" +
        std::to_string(opt.seed) + ".jsonl");
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    }
  }
  workload->TearDown();
  report.EndToEnd("peak_rss_mb", "MB", peak_rss_mb, probe_cycles);
  report.Info("failed_frac", "ratio",
              report.attempted() == 0
                  ? 0
                  : static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted()),
              report.attempted());
  fs::remove_all(opt.work_dir, ec);
  report.Print(opt.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
