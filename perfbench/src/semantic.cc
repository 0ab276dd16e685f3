// semantic_mixed: stSPARQL spatial reads beside durable writes, over the
// wire, closed loop on two connections.
//
//   A (all stSPARQL traffic): distinct-window strdf:intersects searches
//     over 3000 archaeological sites + 3000 towns, the paper's §1 query
//     (hotspots within 2 km of an archaeological site), and INSERT DATA
//     of annotation triples with geometry.
//   B (SQL): durable INSERTs into a detections table no reader scans,
//     and point lookups on the stations and products tables.
//
// stSPARQL stays on one connection because concurrent spatial stSPARQL
// is a data race in the program (see perfbench/README.md, defect a).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "eo/scene.h"
#include "io/filesystem.h"
#include "linkeddata/generators.h"
#include "relational/sql_engine.h"
#include "strabon/strabon.h"
#include "vault/formats.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using teleios::server::Lang;
using teleios::storage::ColumnType;
using teleios::storage::Table;

constexpr int kSites = 3000;
constexpr int kTowns = 3000;
constexpr int kStations = 20'000;
constexpr const char* kRegions[] = {"Attica", "Peloponnese", "Crete",
                                    "Epirus", "Thessaly",    "Macedonia"};
constexpr const char* kAnnotationNs = "http://bench.teleios/annotation/";
// The scene footprint (eo::SceneSpec defaults: the Peloponnese).
constexpr double kLonMin = 21.0, kLonMax = 23.5, kLatMin = 36.2,
                 kLatMax = 38.5;

const char* kHeadline = R"sparql(
PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT DISTINCT ?product ?site ?label
WHERE {
  ?product a noa:Product ;
           noa:producedBySatellite "Meteosat-9" ;
           noa:hasAcquisitionTime ?t ;
           noa:hasGeometry ?pg .
  ?hotspot a noa:Hotspot ;
           noa:derivedFromProduct ?product ;
           noa:hasGeometry ?hg .
  ?site a dbo:ArchaeologicalSite ;
        rdfs:label ?label ;
        strdf:hasGeometry ?sg .
  FILTER(?t >= "2007-08-25T00:00:00"^^xsd:dateTime)
  FILTER(?t < "2007-08-26T00:00:00"^^xsd:dateTime)
  FILTER(strdf:contains(?pg, "POINT (22.2 37.3)"^^strdf:WKT))
  FILTER(strdf:geodesicDistance(?hg, ?sg) < 2000.0)
}
ORDER BY ?label
)sparql";

/// Order-independent digest of a result: row count + hash of the sorted
/// rendered rows.
struct Digest {
  size_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && hash == o.hash;
  }
};

Digest DigestOf(const Table& t) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      row += t.Get(r, c).ToString() + "\x1f";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const std::string& row : rows) {
    for (unsigned char ch : row) h = (h ^ ch) * 1099511628211ull;
    h = (h ^ 0x1e) * 1099511628211ull;
  }
  return Digest{rows.size(), h};
}

struct WindowAnswer {
  std::string query;
  Digest digest;
};

class SemanticMixed : public Workload {
 public:
  explicit SemanticMixed(const Options& opt) : opt_(opt) {}

  void Prepare() override {
    Rng rng(opt_.seed ^ 0x73656d616e746963ull);
    teleios::eo::SceneSpec spec;
    spec.width = spec.height = 128;
    spec.seed = rng.Next();
    spec.num_fires = 4;
    spec.name = "sem_scene";
    auto scene = teleios::eo::GenerateScene(spec);
    PB_CHECK_OK(scene);
    scene_dir_ = opt_.work_dir + "/semantic-scene";
    fs::create_directories(scene_dir_);
    PB_CHECK_OK(teleios::vault::WriteTer(scene->ToTerRaster(),
                                         scene_dir_ + "/sem_scene.ter"));
    auto sites =
        teleios::linkeddata::GenerateArchaeologicalSites(*scene, kSites, rng.Next());
    auto towns = teleios::linkeddata::GenerateTowns(*scene, kTowns, rng.Next());
    PB_CHECK_OK(sites);
    PB_CHECK_OK(towns);
    sites_ttl_ = std::move(*sites);
    towns_ttl_ = std::move(*towns);
    for (int i = 0; i < kStations; ++i) {
      station_region_.push_back(static_cast<int>(rng.Below(6)));
      station_elev_.push_back(static_cast<double>(rng.Below(24'000)) / 10.0);
    }
  }

  void SetUp(const std::string& dir) override {
    served_.dir = dir;
    served_.veo = std::make_unique<teleios::core::VirtualEarthObservatory>();
    teleios::core::VirtualEarthObservatory& veo = *served_.veo;
    PB_CHECK_OK(veo.Open(dir));
    PB_CHECK_OK(veo.LoadLinkedData(sites_ttl_));
    PB_CHECK_OK(veo.LoadLinkedData(towns_ttl_));
    auto stations = std::make_shared<Table>(teleios::storage::Schema(
        {{"id", ColumnType::kInt64},
         {"name", ColumnType::kString},
         {"region", ColumnType::kString},
         {"elevation", ColumnType::kFloat64}}));
    for (int i = 0; i < kStations; ++i) {
      stations->column(0).AppendInt64(i);
      stations->column(1).AppendString("st" + std::to_string(i));
      stations->column(2).AppendString(kRegions[station_region_[i]]);
      stations->column(3).AppendFloat64(station_elev_[i]);
    }
    PB_CHECK_OK(veo.catalog().CreateTable("stations", stations));
    PB_CHECK_OK(veo.Sql(
        "CREATE TABLE detections (id INT, product VARCHAR, lon DOUBLE, "
        "lat DOUBLE, confidence DOUBLE)"));
    PB_CHECK_OK(veo.AttachArchive(scene_dir_));
    teleios::noa::ChainConfig config;
    config.classifier.kind = teleios::noa::ClassifierKind::kContextual;
    auto chain = veo.RunFireChain("sem_scene", config);
    PB_CHECK_OK(chain);
    product_id_ = chain->product_id;
    PB_CHECK_OK(veo.Checkpoint());
    PB_CHECK_OK(Serve(&served_, 2));
  }

  void TearDown() override { Shutdown(&served_); }
  uint64_t MemoryProbeCycles() const override { return 10'000; }

  /// The oracle's Turtle: the observatory's whole store after set-up,
  /// chain products included.
  void SnapshotOracle() override {
    std::string path = opt_.work_dir + "/semantic-reference.ttl";
    PB_CHECK_OK(served_.veo->strabon().SaveTurtleFile(path));
    auto text = teleios::io::GetFileSystem()->ReadFile(path);
    PB_CHECK_OK(text);
    reference_ttl_ = std::move(*text);
  }

  teleios::core::VirtualEarthObservatory& veo() override {
    return *served_.veo;
  }

  PhaseResult Run(double seconds, Tracer* tracer) override {
    windows_.clear();
    headlines_.clear();
    acked_ids_.clear();
    acked_iris_.clear();
    mismatches_.clear();
    PhaseResult a, b;
    std::unique_ptr<Tracer> tracer_b =
        tracer == nullptr ? nullptr : std::make_unique<Tracer>(*tracer);
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    std::vector<std::string> bad_b;
    std::thread sql_thread(
        [&] { LoopSql(deadline, tracer_b.get(), &b, &bad_b); });
    LoopSparql(deadline, tracer, &a);
    sql_thread.join();
    PhaseResult out;
    out.start = start;
    out.end = Clock::now();
    out.wall_s = std::chrono::duration<double>(out.end - start).count();
    out.Merge(a);
    out.Merge(b);
    if (tracer != nullptr) tracer->Merge(*tracer_b);
    mismatches_.insert(mismatches_.end(), bad_b.begin(), bad_b.end());
    return out;
  }

  void Check(Report* report) override {
    for (const std::string& m : mismatches_) report->Mismatch(m);
    CheckWindows(report);
    CheckRecovery(report);
  }

 private:
  std::string WindowQuery(Rng* rng) const {
    double half = rng->Range(0.05, 0.15);
    double cx = rng->Range(kLonMin + half, kLonMax - half);
    double cy = rng->Range(kLatMin + half, kLatMax - half);
    char polygon[256];
    std::snprintf(polygon, sizeof(polygon),
                  "POLYGON ((%.6f %.6f, %.6f %.6f, %.6f %.6f, %.6f %.6f, "
                  "%.6f %.6f))",
                  cx - half, cy - half, cx + half, cy - half, cx + half,
                  cy + half, cx - half, cy + half, cx - half, cy - half);
    bool sites = rng->Below(2) == 0;
    return std::string(sites ? "PREFIX dbo: <http://dbpedia.org/ontology/> "
                               "SELECT ?s WHERE { ?s a dbo:ArchaeologicalSite"
                             : "SELECT ?s WHERE { ?s a geonames:Feature") +
           " ; strdf:hasGeometry ?g . FILTER(strdf:intersects(?g, \"" +
           polygon + "\"^^strdf:WKT)) }";
  }

  /// Connection A: every stSPARQL statement of the workload.
  void LoopSparql(Clock::time_point deadline, Tracer* tracer,
                  PhaseResult* out) {
    Rng rng(opt_.seed * 0x9e3779b97f4a7c15ull + 0xa);
    teleios::relational::SqlEngine sql(&served_.veo->catalog());
    teleios::server::Client& client = served_.clients[0];
    uint64_t seq = 0;
    while (Clock::now() < deadline) {
      uint64_t op = (1ull << 40) | seq++;
      double u = rng.Uniform();
      ++out->ops;
      auto cycle = Clock::now();
      if (u < 0.65) {
        bool headline = u >= 0.63;
        const char* kind = headline ? "headline" : "window";
        std::string query = headline ? kHeadline : WindowQuery(&rng);
        auto t0 = Clock::now();
        auto answer = WireRead(client, Lang::kStSparql, query, op, tracer,
                               *served_.veo, sql);
        double ms = MsSince(t0);
        ++out->wire_ops;
        ++out->strabon_reads;
        if (!answer.ok()) {
          Error(out, query, answer.status());
          out->Done(cycle, false, kind);
          continue;
        }
        out->reads.Add(ms);
        out->Done(cycle, true, kind);
        // Answers are checked after the phase, outside the cycle.
        if (headline) {
          headlines_.push_back(DigestOf(*answer));
        } else {
          windows_.push_back({std::move(query), DigestOf(*answer)});
        }
      } else {
        std::string iri = std::string(kAnnotationNs) + "a" +
                          std::to_string(seq);
        char update[512];
        std::snprintf(update, sizeof(update),
                      "INSERT DATA { <%s> a noa:Annotation ; "
                      "noa:hasGeometry \"POINT (%.6f %.6f)\"^^strdf:WKT ; "
                      "noa:hasConfidence \"%.3f\"^^xsd:double . }",
                      iri.c_str(), rng.Range(kLonMin, kLonMax),
                      rng.Range(kLatMin, kLatMax), rng.Range(0.5, 1.0));
        Status st = Write(client, Lang::kStSparql, update, op, tracer, out);
        out->Done(cycle, st.ok(), "insert_data");
        if (!st.ok()) {
          Error(out, update, st);
          continue;
        }
        acked_iris_.push_back(std::move(iri));
      }
    }
  }

  /// Connection B: durable SQL inserts and metadata point lookups.
  void LoopSql(Clock::time_point deadline, Tracer* tracer, PhaseResult* out,
               std::vector<std::string>* bad) {
    Rng rng(opt_.seed * 0x9e3779b97f4a7c15ull + 0xb);
    teleios::relational::SqlEngine sql(&served_.veo->catalog());
    teleios::server::Client& client = served_.clients[1];
    uint64_t seq = 0;
    while (Clock::now() < deadline) {
      uint64_t op = (2ull << 40) | seq++;
      double u = rng.Uniform();
      ++out->ops;
      auto cycle = Clock::now();
      if (u < 0.5) {
        int64_t id = static_cast<int64_t>(seq);
        char insert[256];
        std::snprintf(insert, sizeof(insert),
                      "INSERT INTO detections VALUES (%lld, '%s', %.6f, "
                      "%.6f, %.3f)",
                      static_cast<long long>(id), product_id_.c_str(),
                      rng.Range(kLonMin, kLonMax), rng.Range(kLatMin, kLatMax),
                      rng.Range(0.5, 1.0));
        Status st = Write(client, Lang::kSql, insert, op, tracer, out);
        if (st.ok()) {
          acked_ids_.push_back(id);
        } else {
          Error(out, insert, st);
        }
        out->Done(cycle, st.ok(), "sql_insert");
        continue;
      }
      bool station = u < 0.9;
      const char* kind = station ? "station_lookup" : "product_lookup";
      int64_t key = static_cast<int64_t>(rng.Below(kStations));
      std::string query =
          station ? "SELECT name, region, elevation FROM stations WHERE id = " +
                        std::to_string(key)
                  : "SELECT id, level FROM products WHERE id = '" +
                        product_id_ + "'";
      auto t0 = Clock::now();
      auto answer =
          WireRead(client, Lang::kSql, query, op, tracer, *served_.veo, sql);
      double ms = MsSince(t0);
      ++out->wire_ops;
      if (!answer.ok()) {
        Error(out, query, answer.status());
        out->Done(cycle, false, kind);
        continue;
      }
      out->reads.Add(ms);
      out->Done(cycle, true, kind);
      bool right =
          station ? answer->num_rows() == 1 &&
                        answer->column(0).GetString(0) ==
                            "st" + std::to_string(key) &&
                        answer->column(1).GetString(0) ==
                            kRegions[station_region_[key]] &&
                        answer->column(2).GetFloat64(0) == station_elev_[key]
                  : answer->num_rows() == 1 &&
                        answer->column(0).GetString(0) == product_id_;
      if (!right) bad->push_back(query + ": wrong row");
    }
  }

  /// One durable mutation: over the wire untraced; through the facade
  /// in process (span facade.write) when traced — a mutation cannot be
  /// replayed at several layers.
  Status Write(teleios::server::Client& client, Lang lang,
               const std::string& statement, uint64_t op, Tracer* tracer,
               PhaseResult* out) {
    auto t0 = Clock::now();
    Status st = Status::OK();
    if (tracer == nullptr) {
      st = client.Query(lang, statement).status();
      ++out->wire_ops;
    } else if (lang == Lang::kSql) {
      st = served_.veo->Sql(statement).status();
    } else {
      st = served_.veo->StSparqlUpdate(statement).status();
    }
    auto t1 = Clock::now();
    if (tracer != nullptr) tracer->Record(op, "facade.write", "", t0, t1);
    if (st.ok()) {
      out->writes.Add(MsBetween(t0, t1));
      ++out->durable_writes;
      out->user_bytes += statement.size();
    }
    return st;
  }

  static void Error(PhaseResult* out, const std::string& what,
                    const Status& st) {
    if (out->errors++ < 10) {
      std::fprintf(stderr, "perfbench: %s -> %s\n", what.substr(0, 120).c_str(),
                   st.ToString().c_str());
    }
  }

  /// Every window and §1 answer against the oracle store: the snapshot's
  /// Turtle in a Strabon whose spatial index is disabled, so every
  /// window is answered by a full scan. Spread over a few threads with
  /// one reference store each (Strabon is not safe for concurrent
  /// spatial queries).
  void CheckWindows(Report* report) {
    int workers = static_cast<int>(std::min<unsigned>(
        4, std::max(1u, std::thread::hardware_concurrency())));
    std::vector<std::vector<std::string>> bad(workers);
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        teleios::strabon::Strabon reference;
        reference.set_spatial_index_enabled(false);
        if (!reference.LoadTurtle(reference_ttl_).ok()) {
          bad[w].push_back("reference store failed to load");
          return;
        }
        if (w == 0) {
          auto want = reference.Query(kHeadline);
          if (!want.ok()) {
            bad[w].push_back("reference headline query failed");
          } else {
            std::printf("semantic_mixed: headline query answers %zu rows\n",
                        want->num_rows());
            for (const Digest& got : headlines_) {
              if (!(got == DigestOf(*want))) {
                bad[w].push_back("headline query answer differs");
              }
            }
          }
        }
        for (size_t i = static_cast<size_t>(w); i < windows_.size();
             i += static_cast<size_t>(workers)) {
          auto want = reference.Query(windows_[i].query);
          if (!want.ok() || !(DigestOf(*want) == windows_[i].digest)) {
            bad[w].push_back("window answer differs: " + windows_[i].query);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (auto& list : bad) {
      for (const std::string& m : list) report->Mismatch(m);
    }
  }

  /// Recovery shows every acknowledged mutation: a fresh Open() over a
  /// copy of the observatory's directory taken after the phase (every
  /// ack implies a WAL sync, so the copy holds every acked record).
  void CheckRecovery(Report* report) {
    std::string copy = served_.dir + "-recovered";
    PB_CHECK_OK(CopyTree(served_.dir, copy));
    {
      teleios::core::VirtualEarthObservatory recovered;
      PB_CHECK_OK(recovered.Open(copy));
      auto ids = recovered.Sql("SELECT id FROM detections");
      PB_CHECK_OK(ids);
      std::multiset<int64_t> present;
      for (size_t r = 0; r < ids->num_rows(); ++r) {
        present.insert(ids->column(0).GetInt64(r));
      }
      for (int64_t id : acked_ids_) {
        if (present.count(id) != 1) {
          report->Mismatch("acked detection " + std::to_string(id) +
                           " recovered " + std::to_string(present.count(id)) +
                           " times");
        }
      }
      if (present.size() != acked_ids_.size()) {
        report->Mismatch("recovered " + std::to_string(present.size()) +
                         " detections, acked " +
                         std::to_string(acked_ids_.size()));
      }
      auto iris = recovered.StSparql("SELECT ?a WHERE { ?a a noa:Annotation }");
      PB_CHECK_OK(iris);
      std::set<std::string> annotations;
      for (size_t r = 0; r < iris->num_rows(); ++r) {
        annotations.insert(iris->Get(r, 0).ToString());
      }
      for (const std::string& iri : acked_iris_) {
        if (annotations.count(iri) == 0 &&
            annotations.count("<" + iri + ">") == 0) {
          report->Mismatch("acked annotation " + iri + " not recovered");
        }
      }
      if (annotations.size() != acked_iris_.size()) {
        report->Mismatch("recovered " + std::to_string(annotations.size()) +
                         " annotations, acked " +
                         std::to_string(acked_iris_.size()));
      }
    }
    std::error_code ec;
    fs::remove_all(copy, ec);
  }

  const Options opt_;
  std::string scene_dir_;
  std::string sites_ttl_, towns_ttl_, reference_ttl_;
  std::vector<int> station_region_;
  std::vector<double> station_elev_;
  Served served_;
  std::string product_id_;
  // Answers of the last phase.
  std::vector<WindowAnswer> windows_;
  std::vector<Digest> headlines_;
  std::vector<int64_t> acked_ids_;
  std::vector<std::string> acked_iris_;
  std::vector<std::string> mismatches_;
};

}  // namespace

std::unique_ptr<Workload> MakeSemanticMixed(const Options& options) {
  return std::make_unique<SemanticMixed>(options);
}

}  // namespace perfbench
