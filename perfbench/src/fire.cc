// fire_chain: one acquisition per operation, in process, one caller,
// closed loop. Each scene arrives as a new .ter file (a seeded pool
// written under fresh names, so every ingest is a vault cache miss) and
// goes through the facade: AttachArchive -> RunFireChain (.vec export)
// -> Refine -> patch mining + PublishAnnotations (durable) -> rapid map.
// The server is bypassed: the chain is not on the wire.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "eo/scene.h"
#include "io/filesystem.h"
#include "linkeddata/generators.h"
#include "mining/annotation_service.h"
#include "mining/features.h"
#include "obs/metrics.h"
#include "vault/formats.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kPool = 8;
constexpr int kSide = 256;
constexpr int kPatch = 16;
constexpr int kConcepts = 6;
// Annotations of the last kKeep products stay published; older ones are
// retracted (durably), as an operational service ages out its products.
// This bounds the semantic store so scene cost does not grow with the
// number of scenes a run manages.
constexpr size_t kKeep = 8;
constexpr const char* kNoa =
    "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#";

/// What arriving scene files are written through: POSIX files without
/// the fsyncs. A scene file is the benchmark's input, deleted after its
/// scene; syncing it would only add disk traffic the program never asked
/// for.
class UnsyncedFileSystem : public teleios::io::PosixFileSystem {
 public:
  Result<std::unique_ptr<teleios::io::WritableFile>> NewWritableFile(
      const std::string& path) override {
    TELEIOS_ASSIGN_OR_RETURN(std::unique_ptr<teleios::io::WritableFile> file,
                             PosixFileSystem::NewWritableFile(path));
    return std::unique_ptr<teleios::io::WritableFile>(
        std::make_unique<Unsynced>(std::move(file)));
  }
  Status SyncDir(const std::string&) override { return Status::OK(); }

 private:
  class Unsynced : public teleios::io::WritableFile {
   public:
    explicit Unsynced(std::unique_ptr<teleios::io::WritableFile> file)
        : file_(std::move(file)) {}
    Status Append(const void* data, size_t n) override {
      return file_->Append(data, n);
    }
    Status Flush() override { return file_->Flush(); }
    Status Sync() override { return file_->Flush(); }
    Status Close() override { return file_->Close(); }

   private:
    std::unique_ptr<teleios::io::WritableFile> file_;
  };
};

struct Published {
  std::string id;
  size_t pool = 0;  // the pool scene it is a copy of
};

struct Expected {
  size_t hotspots = 0;   // chain output
  size_t refined = 0;    // clipped by the sea
  size_t removed = 0;    // entirely at sea
  size_t live = 0;       // noa:Hotspot after refinement
  size_t patches = 0;    // published annotation patches
};

/// The chain's top-level stage spans, by the stage label of their
/// latency histogram.
const char* StageLabel(const std::string& span) {
  if (span == "ingestion") return "ingestion";
  if (span == "crop+classify (SciQL)") return "classification";
  if (span == "georeference+polygonize") return "hotspot_extraction";
  if (span == "catalog+shapefile") return "publication";
  return nullptr;
}

std::string ProductIri(const std::string& id) {
  return std::string(kNoa) + "product/" + id;
}

/// Sums the spans named `name` anywhere under `node`.
double SumSpans(const teleios::obs::SpanNode& node, const std::string& name) {
  double sum = node.name == name ? node.millis : 0;
  for (const auto& child : node.children) sum += SumSpans(child, name);
  return sum;
}

teleios::noa::ChainConfig ChainConfigIn(const std::string& vec_dir) {
  teleios::noa::ChainConfig config;
  config.classifier.kind = teleios::noa::ClassifierKind::kContextual;
  config.output_dir = vec_dir;
  return config;
}

class FireChain : public Workload {
 public:
  explicit FireChain(const Options& opt) : opt_(opt) {}

  void Prepare() override {
    Rng rng(opt_.seed ^ 0x6669726563686e21ull);
    for (int j = 0; j < kPool; ++j) {
      teleios::eo::SceneSpec spec;
      spec.width = spec.height = kSide;
      spec.seed = rng.Next();
      spec.num_fires = 8;
      spec.name = "pool" + std::to_string(j);
      auto scene = teleios::eo::GenerateScene(spec);
      PB_CHECK_OK(scene);
      pool_.push_back(std::move(*scene));
      pool_ter_.push_back(pool_.back().ToTerRaster());
    }
    auto coast = teleios::linkeddata::GenerateCoastline(pool_[0]);
    auto towns = teleios::linkeddata::GenerateTowns(pool_[0], 40, rng.Next());
    auto sites = teleios::linkeddata::GenerateArchaeologicalSites(
        pool_[0], 1000, rng.Next());
    auto landcover = teleios::linkeddata::GenerateLandCover(pool_[0], 16);
    PB_CHECK_OK(coast);
    PB_CHECK_OK(towns);
    PB_CHECK_OK(sites);
    PB_CHECK_OK(landcover);
    // The auxiliary linked data an operational observatory holds beside
    // its products: coastline (refinement), towns (map), sites and land
    // cover (context).
    linked_data_ = {std::move(*coast), std::move(*towns), std::move(*sites),
                    std::move(*landcover)};
    // The archive the service already holds: the pool scenes under
    // their own names, ingested at set-up.
    archive_ = opt_.work_dir + "/fire-archive";
    fs::create_directories(archive_);
    for (int j = 0; j < kPool; ++j) {
      teleios::vault::TerRaster ter = pool_ter_[j];
      ter.name = "archive" + std::to_string(j);
      PB_CHECK_OK(teleios::vault::WriteTer(ter, archive_ + "/" + ter.name + ".ter"));
    }
    incoming_ = opt_.work_dir + "/fire-incoming";
    vec_dir_ = opt_.work_dir + "/fire-vec";
    fs::create_directories(vec_dir_);
    BuildReference();
  }

  void SetUp(const std::string& dir) override {
    veo_ = std::make_unique<teleios::core::VirtualEarthObservatory>();
    PB_CHECK_OK(veo_->Open(dir));
    for (const std::string& ttl : linked_data_) {
      PB_CHECK_OK(veo_->LoadLinkedData(ttl));
    }
    PB_CHECK_OK(veo_->AttachArchive(archive_));
    for (int j = 0; j < kPool; ++j) {
      PB_CHECK_OK(veo_->RegisterRaster("archive" + std::to_string(j)));
    }
    PB_CHECK_OK(veo_->Checkpoint());
  }

  void TearDown() override { veo_.reset(); }
  uint64_t MemoryProbeCycles() const override { return 40; }

  teleios::core::VirtualEarthObservatory& veo() override { return *veo_; }

  PhaseResult Run(double seconds, Tracer* tracer) override {
    mismatches_.clear();
    Rng rng(opt_.seed * 0x9e3779b97f4a7c15ull + 0xf);
    teleios::obs::Counter* atomic_writes =
        teleios::obs::MetricsRegistry::Global().GetCounter(
            "teleios_io_atomic_writes_total");
    PhaseResult out;
    std::vector<Published> products;
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    for (uint64_t i = 0; Clock::now() < deadline; ++i) {
      size_t j = rng.Below(kPool);
      std::string name = "scene" + std::to_string(i);
      std::string in_dir = incoming_ + "/" + std::to_string(i);
      // The acquisition arrives: benchmark work, outside the scene time.
      {
        fs::create_directories(in_dir);
        teleios::vault::TerRaster ter = pool_ter_[j];
        ter.name = name;
        uint64_t before = atomic_writes->value();
        // Nothing else does I/O while the single caller writes its input.
        teleios::io::ScopedFileSystem unsynced(&unsynced_);
        PB_CHECK_OK(teleios::vault::WriteTer(ter, in_dir + "/" + name + ".ter"));
        out.input_atomic_writes += atomic_writes->value() - before;
      }
      auto cycle = Clock::now();
      ++out.ops;
      std::string product;
      Status st = Scene(i, j, name, in_dir, tracer, &out, &product);
      if (!st.ok()) {
        if (out.errors++ < 10) {
          std::fprintf(stderr, "perfbench: scene %s -> %s\n", name.c_str(),
                       st.ToString().c_str());
        }
      } else {
        ++out.scenes_done;
        products.push_back({product, j});
        // The new product must be visible to SQL and stSPARQL; the
        // operator's dashboard then re-reads the annotation layer of
        // every retained product (a fixed 16x16 grid of patches each, so
        // the read's size does not depend on the scene drawn).
        VerifyVisible(product, expected_[j], &out);
        for (const Published& p : products) {
          if (ReadRows(false, PatchQuery(p.id), &out) !=
              expected_[p.pool].patches) {
            mismatches_.push_back(p.id + ": annotations changed on the dashboard");
          }
        }
      }
      Retire(name, in_dir, &products, &out);
      out.Done(cycle, st.ok(), "scene");
    }
    out.start = start;
    out.end = Clock::now();
    out.wall_s = std::chrono::duration<double>(out.end - start).count();
    std::error_code ec;
    fs::remove_all(incoming_, ec);
    return out;
  }

  void Check(Report* report) override {
    for (const std::string& m : mismatches_) report->Mismatch(m);
  }

 private:
  /// The oracle: each pool scene through the chain and refinement on a
  /// fresh, non-durable observatory with the same linked data.
  void BuildReference() {
    teleios::core::VirtualEarthObservatory ref;
    for (const std::string& ttl : linked_data_) {
      PB_CHECK_OK(ref.LoadLinkedData(ttl));
    }
    std::string ref_dir = opt_.work_dir + "/fire-reference";
    for (int j = 0; j < kPool; ++j) {
      std::string dir = ref_dir + "/" + std::to_string(j);
      fs::create_directories(dir);
      PB_CHECK_OK(teleios::vault::WriteTer(pool_ter_[j],
                                           dir + "/pool.ter"));
      PB_CHECK_OK(ref.AttachArchive(dir));
      auto chain = ref.RunFireChain(pool_ter_[j].name, ChainConfigIn(""));
      PB_CHECK_OK(chain);
      auto refined = ref.Refine(chain->product_id);
      PB_CHECK_OK(refined);
      auto patches = teleios::mining::CutPatches(pool_[j], kPatch);
      PB_CHECK_OK(patches);
      teleios::mining::AnnotationService service;
      PB_CHECK_OK(service.Annotate(*patches, kConcepts));
      PB_CHECK_OK(ref.PublishAnnotations(service, chain->product_id));
      Expected e;
      e.hotspots = chain->hotspots.size();
      e.refined = refined->hotspots_refined;
      e.removed = refined->hotspots_removed;
      e.live = CountRows(ref, HotspotQuery(chain->product_id));
      e.patches = CountRows(ref, PatchQuery(chain->product_id));
      expected_.push_back(e);
    }
    std::error_code ec;
    fs::remove_all(ref_dir, ec);
  }

  // What the dashboard shows of a product: its live hotspots and its
  // annotation patches, with geometry and confidence.
  static std::string HotspotQuery(const std::string& product) {
    return "SELECT ?h ?g ?c WHERE { ?h a noa:Hotspot ; "
           "noa:derivedFromProduct <" +
           ProductIri(product) +
           "> ; noa:hasGeometry ?g ; noa:hasConfidence ?c }";
  }
  static std::string PatchQuery(const std::string& product) {
    return "SELECT ?p ?k ?g ?c WHERE { ?p a noa:Patch ; "
           "noa:derivedFromProduct <" +
           ProductIri(product) +
           "> ; noa:hasConcept ?k ; noa:hasGeometry ?g ; noa:hasConfidence ?c }";
  }
  static size_t CountRows(teleios::core::VirtualEarthObservatory& veo,
                          const std::string& query) {
    auto rows = veo.StSparql(query);
    PB_CHECK_OK(rows);
    return rows->num_rows();
  }

  /// One acquisition through the observatory; the scene latency.
  Status Scene(uint64_t i, size_t j, const std::string& name,
               const std::string& in_dir, Tracer* tracer, PhaseResult* out,
               std::string* product) {
    auto t0 = Clock::now();
    auto mark = t0;
    auto span = [&](const char* what) {
      auto now = Clock::now();
      if (tracer != nullptr) tracer->Record(i, what, "scene", mark, now);
      mark = now;
    };
    TELEIOS_RETURN_IF_ERROR(veo_->AttachArchive(in_dir).status());
    span("fire.attach");
    auto chain_start = mark;
    TELEIOS_ASSIGN_OR_RETURN(teleios::noa::ChainResult chain,
                             veo_->RunFireChain(name, ChainConfigIn(vec_dir_)));
    span("fire.chain");
    if (tracer != nullptr) {
      // The chain's own spans (ChainResult::timings / trace), laid out
      // under the benchmark's chain span.
      auto at = chain_start;
      for (const teleios::noa::StepTiming& step : chain.timings) {
        const char* label = StageLabel(step.step);
        auto end = at + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(step.millis));
        if (label != nullptr) {
          tracer->Record(i, std::string("noa.stage.") + label, "fire.chain",
                         at, end);
        }
        at = end;
      }
      double sciql = SumSpans(chain.trace, "sciql.statement");
      tracer->Record(i, "engine.sciql", "fire.chain", chain_start,
                     chain_start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double, std::milli>(sciql)));
    }
    TELEIOS_ASSIGN_OR_RETURN(teleios::noa::RefinementReport refined,
                             veo_->Refine(chain.product_id));
    span("noa.refine");
    TELEIOS_ASSIGN_OR_RETURN(std::vector<teleios::mining::Patch> patches,
                             teleios::mining::CutPatches(pool_[j], kPatch));
    span("mining.patches");
    teleios::mining::AnnotationService service;
    TELEIOS_RETURN_IF_ERROR(service.Annotate(patches, kConcepts));
    span("mining.annotate");
    auto w0 = Clock::now();
    TELEIOS_RETURN_IF_ERROR(
        veo_->PublishAnnotations(service, chain.product_id).status());
    out->writes.Add(MsSince(w0));
    ++out->durable_writes;
    span("mining.publish");
    teleios::noa::RapidMapper mapper = veo_->MakeMapper();
    TELEIOS_RETURN_IF_ERROR(mapper.AddQueryLayer(
        "land", "#88aa66", '.',
        "SELECT ?g WHERE { ?x a noa:LandArea ; noa:hasGeometry ?g }"));
    TELEIOS_RETURN_IF_ERROR(mapper.AddQueryLayer(
        "hotspots", "#dd2200", '#',
        "SELECT ?g WHERE { ?h a noa:Hotspot ; noa:derivedFromProduct <" +
            ProductIri(chain.product_id) + "> ; noa:hasGeometry ?g }"));
    TELEIOS_RETURN_IF_ERROR(mapper.AddQueryLayer(
        "towns", "#2244cc", 'o',
        "SELECT ?g WHERE { ?t a geonames:Feature ; strdf:hasGeometry ?g }"));
    std::string svg = mapper.RenderSvg();
    span("fire.render");
    out->scenes.Add(MsSince(t0));
    if (tracer != nullptr) tracer->Record(i, "scene", "", t0, Clock::now());

    const Expected& want = expected_[j];
    if (chain.hotspots.size() != want.hotspots ||
        refined.hotspots_refined != want.refined ||
        refined.hotspots_removed != want.removed) {
      mismatches_.push_back(name + ": chain/refine counts differ from the "
                                   "reference run");
    }
    if (svg.find("<svg") == std::string::npos) {
      mismatches_.push_back(name + ": map render produced no SVG");
    }
    *product = chain.product_id;
    return Status::OK();
  }

  /// One read through the facade; its row count, or -1 on error.
  size_t ReadRows(bool sql, const std::string& text, PhaseResult* out) {
    auto t0 = Clock::now();
    auto rows = sql ? veo_->Sql(text) : veo_->StSparql(text);
    double ms = MsSince(t0);
    if (!rows.ok()) {
      ++out->errors;
      return static_cast<size_t>(-1);
    }
    out->reads.Add(ms);
    if (!sql) ++out->strabon_reads;
    return rows->num_rows();
  }

  /// The product is visible to SQL (products) and stSPARQL (its live
  /// hotspots), as in the reference run.
  void VerifyVisible(const std::string& product, const Expected& want,
                     PhaseResult* out) {
    size_t rows =
        ReadRows(true, "SELECT * FROM products WHERE id = '" + product + "'", out);
    size_t live = ReadRows(false, HotspotQuery(product), out);
    if (rows != 1 || live != want.live) {
      mismatches_.push_back(product + ": not visible as in the reference run");
    }
  }

  /// Housekeeping after a scene: age out the annotations of the product
  /// kKeep scenes back (a durable write), drop the scene's array and
  /// cached payload, and delete the input file.
  void Retire(const std::string& name, const std::string& in_dir,
              std::vector<Published>* products, PhaseResult* out) {
    if (products->size() >= kKeep) {
      auto t0 = Clock::now();
      auto deleted = veo_->DeleteAnnotations(products->front().id);
      if (deleted.ok()) {
        out->writes.Add(MsSince(t0));
        ++out->durable_writes;
      } else {
        mismatches_.push_back("retract annotations: " +
                              deleted.status().ToString());
      }
      products->erase(products->begin());
    }
    (void)veo_->SciQl("DROP ARRAY " + name);
    veo_->vault().EvictCache();
    std::error_code ec;
    fs::remove_all(in_dir, ec);
  }

  const Options opt_;
  std::vector<teleios::eo::Scene> pool_;
  std::vector<teleios::vault::TerRaster> pool_ter_;
  std::vector<Expected> expected_;
  std::vector<std::string> linked_data_;
  std::string archive_, incoming_, vec_dir_;
  std::unique_ptr<teleios::core::VirtualEarthObservatory> veo_;
  UnsyncedFileSystem unsynced_;
  std::vector<std::string> mismatches_;
};

}  // namespace

std::unique_ptr<Workload> MakeFireChain(const Options& options) {
  return std::make_unique<FireChain>(options);
}

}  // namespace perfbench
