// archive_analytics: read-only SQL + SciQL over the wire on min(4, nproc)
// connections, closed loop. A resident 400k-row measurement table (id,
// dictionary-string band, temperature) and four registered 256²-512²
// rasters. Almost all time is in relational/storage/exec/sciql; no
// writes, no strabon, no io in the measured phase.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "eo/scene.h"
#include "relational/sql_engine.h"
#include "vault/formats.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using teleios::server::Lang;
using teleios::storage::ColumnType;
using teleios::storage::Table;

constexpr size_t kRows = 400'000;
// Temperatures are 250 + k/1000 K for integer k in [0, kTempSteps):
// thresholds at half steps never tie with a value, so the brute-force
// oracle is exact.
constexpr int kTempSteps = 100'000;
constexpr const char* kBands[] = {"VIS006", "NIR016", "IR039", "IR108",
                                  "IR087",  "IR120",  "WV062"};
constexpr int kNumBands = 7;
constexpr int kRasterSides[] = {256, 320, 384, 512};
constexpr int kNumRasters = 4;
// SciQL classification parameters the mix draws from.
constexpr int kDiffs = 7;   // IR039 - IR108 > 8 + d
constexpr int kMinT = 13;   // IR039 > 300 + t

enum class Kind {
  kCountNarrow,   // count(*) at ~1% selectivity
  kCountHalf,     // count(*) at ~50%
  kGroupBy,       // GROUP BY band
  kProjection,    // ~1% of the rows, streamed in chunks
  kPointLookup,   // id = k
  kClassify,      // SciQL classification count over a whole raster
  kSlabCount,     // SciQL slab count
};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kCountNarrow: return "count_narrow";
    case Kind::kCountHalf: return "count_half";
    case Kind::kGroupBy: return "group_by";
    case Kind::kProjection: return "projection";
    case Kind::kPointLookup: return "point_lookup";
    case Kind::kClassify: return "sciql_classify";
    case Kind::kSlabCount: return "sciql_slab";
  }
  return "unknown";
}

struct Op {
  Kind kind;
  Lang lang;
  std::string text;
  int64_t a = 0, b = 0, c = 0;  // kind-specific parameters
  int64_t y0 = 0, y1 = 0, x0 = 0, x1 = 0;
};

struct Raster {
  std::string name;
  int side = 0;
  teleios::vault::TerRaster ter;
  int ir039 = -1, ir108 = -1, cloud = -1, land = -1;
};

class ArchiveAnalytics : public Workload {
 public:
  explicit ArchiveAnalytics(const Options& opt)
      : opt_(opt),
        threads_(static_cast<int>(std::min<unsigned>(
            4, std::max(1u, std::thread::hardware_concurrency())))) {}

  void Prepare() override {
    Rng rng(opt_.seed ^ 0x6172636869766521ull);
    steps_.resize(kRows);
    band_.resize(kRows);
    above_count_.assign(kTempSteps + 1, 0);
    above_idsum_.assign(kTempSteps + 1, 0);
    // Skewed band frequencies, like a real archive's band mix.
    constexpr double kCdf[kNumBands] = {0.30, 0.48, 0.62, 0.74,
                                        0.84, 0.93, 1.0};
    for (size_t i = 0; i < kRows; ++i) {
      steps_[i] = static_cast<int32_t>(rng.Below(kTempSteps));
      double u = rng.Uniform();
      int b = 0;
      while (u > kCdf[b]) ++b;
      band_[i] = static_cast<int8_t>(b);
      above_count_[steps_[i]] += 1;
      above_idsum_[steps_[i]] += i;
      group_count_[b] += 1;
      group_max_[b] = std::max(group_max_[b], steps_[i]);
    }
    // Suffix sums: entry k = rows with step >= k.
    for (int k = kTempSteps - 1; k >= 0; --k) {
      above_count_[k] += above_count_[k + 1];
      above_idsum_[k] += above_idsum_[k + 1];
    }
    raster_dir_ = opt_.work_dir + "/archive-rasters";
    fs::create_directories(raster_dir_);
    for (int r = 0; r < kNumRasters; ++r) {
      teleios::eo::SceneSpec spec;
      spec.width = spec.height = kRasterSides[r];
      spec.seed = rng.Next();
      spec.num_fires = 12;
      spec.name = "arch_r" + std::to_string(r);
      auto scene = teleios::eo::GenerateScene(spec);
      PB_CHECK_OK(scene);
      Raster raster;
      raster.name = spec.name;
      raster.side = spec.width;
      raster.ter = scene->ToTerRaster();
      raster.ir039 = raster.ter.BandIndex("IR039");
      raster.ir108 = raster.ter.BandIndex("IR108");
      raster.cloud = raster.ter.BandIndex("CLOUDMASK");
      raster.land = raster.ter.BandIndex("LANDMASK");
      if (raster.ir039 < 0 || raster.ir108 < 0 || raster.cloud < 0 ||
          raster.land < 0) {
        Die("archive rasters", "scene raster lacks a classification band");
      }
      PB_CHECK_OK(teleios::vault::WriteTer(
          raster.ter, raster_dir_ + "/" + raster.name + ".ter"));
      // The classification oracle for every parameter pair the mix can
      // draw, by brute force over the generated bands.
      for (int d = 0; d < kDiffs; ++d) {
        for (int t = 0; t < kMinT; ++t) {
          classify_[r][d][t] = BruteClassify(raster, 8 + d, 300 + t);
        }
      }
      rasters_.push_back(std::move(raster));
    }
  }

  void SetUp(const std::string& dir) override {
    served_.dir = dir;
    served_.veo = std::make_unique<teleios::core::VirtualEarthObservatory>();
    teleios::core::VirtualEarthObservatory& veo = *served_.veo;
    PB_CHECK_OK(veo.Open(dir));
    auto table = std::make_shared<Table>(teleios::storage::Schema(
        {{"id", ColumnType::kInt64},
         {"band", ColumnType::kString},
         {"temp", ColumnType::kFloat64}}));
    for (size_t i = 0; i < kRows; ++i) {
      table->column(0).AppendInt64(static_cast<int64_t>(i));
      table->column(1).AppendString(kBands[band_[i]]);
      table->column(2).AppendFloat64(Temp(steps_[i]));
    }
    PB_CHECK_OK(veo.catalog().CreateTable("m", table));
    PB_CHECK_OK(veo.AttachArchive(raster_dir_));
    for (const Raster& r : rasters_) PB_CHECK_OK(veo.RegisterRaster(r.name));
    // The archive's state is durable before it serves.
    PB_CHECK_OK(veo.Checkpoint());
    PB_CHECK_OK(Serve(&served_, threads_));
  }

  void TearDown() override { Shutdown(&served_); }
  uint64_t MemoryProbeCycles() const override { return 1000; }

  teleios::core::VirtualEarthObservatory& veo() override {
    return *served_.veo;
  }

  PhaseResult Run(double seconds, Tracer* tracer) override {
    std::vector<PhaseResult> parts(threads_);
    std::vector<std::unique_ptr<Tracer>> tracers;
    std::vector<std::vector<std::string>> bad(threads_);
    for (int t = 0; t < threads_; ++t) {
      tracers.push_back(tracer == nullptr
                            ? nullptr
                            : std::make_unique<Tracer>(*tracer));
    }
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back([&, t] {
        Loop(t, deadline, tracers[t].get(), &parts[t], &bad[t]);
      });
    }
    for (std::thread& w : workers) w.join();
    PhaseResult out;
    out.start = start;
    out.end = Clock::now();
    out.wall_s = std::chrono::duration<double>(out.end - start).count();
    for (int t = 0; t < threads_; ++t) {
      out.Merge(parts[t]);
      if (tracer != nullptr) tracer->Merge(*tracers[t]);
    }
    mismatches_.clear();
    for (auto& b : bad) {
      mismatches_.insert(mismatches_.end(), b.begin(), b.end());
    }
    return out;
  }

  void Check(Report* report) override {
    // Answers are checked inline against the precomputed oracles (the
    // checks are O(1) or O(rows returned)); here they are charged.
    for (const std::string& m : mismatches_) report->Mismatch(m);
  }

 private:
  static double Temp(int64_t step) {
    return 250.0 + static_cast<double>(step) / 1000.0;
  }
  /// Threshold strictly between steps k-1 and k: "temp > T" keeps the
  /// rows with step >= k.
  static std::string Threshold(int64_t k) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  250.0 + (static_cast<double>(k) - 0.5) / 1000.0);
    return buf;
  }

  static int64_t BruteClassify(const Raster& r, int diff, int min_t) {
    const auto& t39 = r.ter.bands[r.ir039];
    const auto& t108 = r.ter.bands[r.ir108];
    const auto& cloud = r.ter.bands[r.cloud];
    const auto& land = r.ter.bands[r.land];
    int64_t n = 0;
    for (size_t i = 0; i < t39.size(); ++i) {
      if (t39[i] - t108[i] > diff && t39[i] > min_t && cloud[i] < 0.5 &&
          land[i] > 0.5) {
        ++n;
      }
    }
    return n;
  }

  int64_t BruteSlab(const Op& op) const {
    const Raster& r = rasters_[op.a];
    const auto& t39 = r.ter.bands[r.ir039];
    int64_t n = 0;
    for (int64_t y = op.y0; y < op.y1; ++y) {
      for (int64_t x = op.x0; x < op.x1; ++x) {
        if (t39[static_cast<size_t>(y * r.side + x)] > op.b) ++n;
      }
    }
    return n;
  }

  /// The seeded operation stream of connection `t`; the traced replay
  /// regenerates the identical stream.
  Op NextOp(Rng* rng) const {
    double u = rng->Uniform();
    Op op;
    if (u < 0.20) {
      op.kind = Kind::kCountNarrow;
      op.a = kTempSteps - 1200 + static_cast<int64_t>(rng->Below(400));
      op.text = "SELECT count(*) AS n FROM m WHERE temp > " + Threshold(op.a);
    } else if (u < 0.30) {
      op.kind = Kind::kCountHalf;
      op.a = 45'000 + static_cast<int64_t>(rng->Below(10'000));
      op.text = "SELECT count(*) AS n FROM m WHERE temp > " + Threshold(op.a);
    } else if (u < 0.40) {
      op.kind = Kind::kGroupBy;
      op.text =
          "SELECT band, count(*) AS n, max(temp) AS mx FROM m GROUP BY band";
    } else if (u < 0.50) {
      op.kind = Kind::kProjection;
      op.a = kTempSteps - 1200 + static_cast<int64_t>(rng->Below(400));
      op.text = "SELECT id, band, temp FROM m WHERE temp > " + Threshold(op.a);
    } else if (u < 0.80) {
      op.kind = Kind::kPointLookup;
      op.a = static_cast<int64_t>(rng->Below(kRows));
      op.text = "SELECT id, band, temp FROM m WHERE id = " +
                std::to_string(op.a);
    } else if (u < 0.90) {
      op.kind = Kind::kClassify;
      op.a = static_cast<int64_t>(rng->Below(kNumRasters));
      op.b = static_cast<int64_t>(rng->Below(kDiffs));
      op.c = static_cast<int64_t>(rng->Below(kMinT));
      op.text = "SELECT count(*) AS n FROM \"" + rasters_[op.a].name +
                "\" WHERE IR039 - IR108 > " + std::to_string(8 + op.b) +
                " and IR039 > " + std::to_string(300 + op.c) +
                " and CLOUDMASK < 0.5 and LANDMASK > 0.5";
    } else {
      op.kind = Kind::kSlabCount;
      op.a = static_cast<int64_t>(rng->Below(kNumRasters));
      int side = rasters_[op.a].side;
      int64_t h = 32 + static_cast<int64_t>(rng->Below(97));
      int64_t w = 32 + static_cast<int64_t>(rng->Below(97));
      op.y0 = static_cast<int64_t>(rng->Below(side - h + 1));
      op.x0 = static_cast<int64_t>(rng->Below(side - w + 1));
      op.y1 = op.y0 + h;
      op.x1 = op.x0 + w;
      op.b = 295 + static_cast<int64_t>(rng->Below(20));
      char slab[96];
      std::snprintf(slab, sizeof(slab), "[%" PRId64 ":%" PRId64 ", %" PRId64
                    ":%" PRId64 "]", op.y0, op.y1, op.x0, op.x1);
      op.text = "SELECT count(*) AS n FROM \"" + rasters_[op.a].name + "\"" +
                slab + " WHERE IR039 > " + std::to_string(op.b);
    }
    op.lang = op.kind == Kind::kClassify || op.kind == Kind::kSlabCount
                  ? Lang::kSciQl
                  : Lang::kSql;
    return op;
  }

  /// Empty when `answer` is what the oracle says; else why not.
  std::string Verify(const Op& op, const Table& answer) const {
    auto single_count = [&](int64_t want) -> std::string {
      if (answer.num_rows() != 1 || answer.num_columns() != 1 ||
          answer.column(0).type() != ColumnType::kInt64) {
        return "shape";
      }
      int64_t got = answer.column(0).GetInt64(0);
      return got == want ? "" : "count " + std::to_string(got) +
                                    " != " + std::to_string(want);
    };
    switch (op.kind) {
      case Kind::kCountNarrow:
      case Kind::kCountHalf:
        return single_count(above_count_[op.a]);
      case Kind::kClassify:
        return single_count(classify_[op.a][op.b][op.c]);
      case Kind::kSlabCount:
        return single_count(BruteSlab(op));
      case Kind::kGroupBy: {
        if (answer.num_rows() != kNumBands || answer.num_columns() != 3) {
          return "groups";
        }
        for (size_t r = 0; r < answer.num_rows(); ++r) {
          const std::string& band = answer.column(0).GetString(r);
          int b = 0;
          while (b < kNumBands && band != kBands[b]) ++b;
          if (b == kNumBands) return "unknown band " + band;
          if (answer.column(1).GetInt64(r) != group_count_[b] ||
              answer.column(2).GetFloat64(r) != Temp(group_max_[b])) {
            return "group " + band;
          }
        }
        return "";
      }
      case Kind::kProjection:
      case Kind::kPointLookup: {
        if (answer.num_columns() != 3) return "columns";
        uint64_t idsum = 0;
        for (size_t r = 0; r < answer.num_rows(); ++r) {
          int64_t id = answer.column(0).GetInt64(r);
          if (id < 0 || id >= static_cast<int64_t>(kRows)) return "id range";
          if (answer.column(1).GetString(r) != kBands[band_[id]] ||
              answer.column(2).GetFloat64(r) != Temp(steps_[id])) {
            return "row " + std::to_string(id);
          }
          if (op.kind == Kind::kProjection && steps_[id] < op.a) {
            return "row " + std::to_string(id) + " fails the predicate";
          }
          idsum += static_cast<uint64_t>(id);
        }
        if (op.kind == Kind::kPointLookup) {
          return answer.num_rows() == 1 && idsum == static_cast<uint64_t>(op.a)
                     ? ""
                     : "lookup rows";
        }
        return answer.num_rows() == above_count_[op.a] &&
                       idsum == above_idsum_[op.a]
                   ? ""
                   : "projection rows";
      }
    }
    return "unknown op";
  }

  void Loop(int t, Clock::time_point deadline, Tracer* tracer,
            PhaseResult* out, std::vector<std::string>* bad) {
    Rng rng(opt_.seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(t) + 1);
    // Each traced connection needs its own direct engine handle.
    teleios::relational::SqlEngine sql(&served_.veo->catalog());
    uint64_t seq = 0;
    while (Clock::now() < deadline) {
      Op op = NextOp(&rng);
      uint64_t op_id = (static_cast<uint64_t>(t) << 40) | seq++;
      auto t0 = Clock::now();
      bool completed = false;
      auto answer = WireRead(served_.clients[t], op.lang, op.text, op_id,
                             tracer, *served_.veo, sql);
      double ms = MsSince(t0);
      ++out->ops;
      ++out->wire_ops;
      if (answer.ok()) {
        completed = true;
        out->reads.Add(ms);
      } else if (out->errors++ < 10) {
        std::fprintf(stderr, "perfbench: %s -> %s\n", op.text.c_str(),
                     answer.status().ToString().c_str());
      }
      out->Done(t0, completed, KindName(op.kind));
      // The oracle's work stays outside the cycle.
      if (completed) {
        std::string why = Verify(op, *answer);
        if (!why.empty()) bad->push_back(op.text + ": " + why);
      }
    }
  }

  const Options opt_;
  const int threads_;
  std::vector<int32_t> steps_;
  std::vector<int8_t> band_;
  std::vector<uint64_t> above_count_;  // rows with step >= k
  std::vector<uint64_t> above_idsum_;
  int64_t group_count_[kNumBands] = {};
  int32_t group_max_[kNumBands] = {};
  int64_t classify_[kNumRasters][kDiffs][kMinT] = {};
  std::vector<Raster> rasters_;
  std::string raster_dir_;
  Served served_;
  std::vector<std::string> mismatches_;
};

}  // namespace

std::unique_ptr<Workload> MakeArchiveAnalytics(const Options& options) {
  return std::make_unique<ArchiveAnalytics>(options);
}

}  // namespace perfbench
