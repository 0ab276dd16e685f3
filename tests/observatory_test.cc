#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "core/observatory.h"
#include "eo/scene.h"
#include "linkeddata/generators.h"
#include "obs/metrics.h"

namespace teleios::core {
namespace {

namespace fs = std::filesystem;

/// Span names of a PROFILE result table (column 0).
std::set<std::string> SpanNames(const storage::Table& profile) {
  std::set<std::string> names;
  for (size_t r = 0; r < profile.num_rows(); ++r) {
    names.insert(profile.Get(r, 0).AsString());
  }
  return names;
}

/// Value of the first `name value` line in a text exposition ("-1" when
/// the series is absent).
int64_t ExpositionValue(const std::string& text, const std::string& series) {
  size_t pos = 0;
  while ((pos = text.find(series + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::stoll(text.substr(pos + series.size() + 1));
    }
    pos += series.size();
  }
  return -1;
}

class ObservatoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("observatory_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    eo::SceneSpec spec;
    spec.width = 96;
    spec.height = 96;
    spec.num_fires = 4;
    spec.name = "msg";
    scene_ = *eo::GenerateScene(spec);
    ASSERT_TRUE(vault::WriteTer(scene_.ToTerRaster(),
                                (dir_ / "msg.ter").string())
                    .ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  eo::Scene scene_;
  VirtualEarthObservatory veo_;
};

TEST_F(ObservatoryTest, OntologyPreloaded) {
  auto classes = veo_.StSparql(
      "SELECT ?c WHERE { ?c a <http://www.w3.org/2002/07/owl#Class> }");
  ASSERT_TRUE(classes.ok());
  EXPECT_GT(classes->num_rows(), 10u);
}

TEST_F(ObservatoryTest, OntologyLoadOutcomeIsObservable) {
  // Regression: the constructor used to drop the Status of the
  // compiled-in ontology load entirely; it is now kept sticky so a
  // failure would be visible to callers instead of manifesting as
  // mysteriously empty taxonomy queries.
  EXPECT_TRUE(veo_.ontology_status().ok());
}

TEST_F(ObservatoryTest, AttachAndQueryMetadata) {
  auto n = veo_.AttachArchive(dir_.string());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto meta = veo_.Sql("SELECT name FROM vault_rasters");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->num_rows(), 1u);
}

TEST_F(ObservatoryTest, SciQlAfterRegister) {
  ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  ASSERT_TRUE(veo_.RegisterRaster("msg").ok());
  ASSERT_TRUE(veo_.RegisterRaster("msg").ok());  // idempotent
  auto r = veo_.SciQl("SELECT count(*) AS n FROM msg WHERE LANDMASK > 0.5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->Get(0, 0).AsInt64(), 0);
}

TEST_F(ObservatoryTest, FullScenarioThroughFacade) {
  ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  ASSERT_TRUE(
      veo_.LoadLinkedData(*linkeddata::GenerateCoastline(scene_)).ok());
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kThreshold;
  config.classifier.threshold_kelvin = 315.0;
  auto result = veo_.RunFireChain("msg", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto report = veo_.Refine(result->product_id);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->hotspots_examined, result->hotspots.size());
  // Products visible to SQL and stSPARQL.
  auto sql_products = veo_.Sql("SELECT id FROM products");
  ASSERT_TRUE(sql_products.ok());
  EXPECT_EQ(sql_products->num_rows(), 1u);
  auto rdf_products =
      veo_.StSparql("SELECT ?p WHERE { ?p a noa:Product }");
  ASSERT_TRUE(rdf_products.ok());
  EXPECT_EQ(rdf_products->num_rows(), 1u);
  // A map over the same store renders.
  auto mapper = veo_.MakeMapper();
  ASSERT_TRUE(mapper
                  .AddQueryLayer("hotspots", "#dd2200", '#',
                                 "SELECT ?g WHERE { ?h a noa:Hotspot ; "
                                 "noa:hasGeometry ?g }")
                  .ok());
  EXPECT_NE(mapper.RenderSvg().find("<svg"), std::string::npos);
}

TEST_F(ObservatoryTest, UpdateThroughFacade) {
  auto n = veo_.StSparqlUpdate(
      "INSERT DATA { <http://x/a> a noa:Hotspot }");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto hot = veo_.StSparql("SELECT ?h WHERE { ?h a noa:Hotspot }");
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->num_rows(), 1u);
}

TEST_F(ObservatoryTest, ErrorsSurface) {
  EXPECT_FALSE(veo_.RegisterRaster("missing").ok());
  EXPECT_FALSE(veo_.Sql("SELECT * FROM nope").ok());
  EXPECT_FALSE(veo_.Refine("no-such-product").ok());
}

TEST_F(ObservatoryTest, ProfileSqlReturnsSpanTree) {
  ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  auto profile = veo_.Sql("PROFILE SELECT name FROM vault_rasters");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->schema().field(0).name, "span");
  std::set<std::string> names = SpanNames(*profile);
  EXPECT_TRUE(names.count("sql"));
  EXPECT_TRUE(names.count("parse"));
  EXPECT_TRUE(names.count("plan"));
  EXPECT_TRUE(names.count("execute"));
  // Root row: depth 0, result cardinality in the detail column.
  EXPECT_EQ(profile->Get(0, 0).AsString(), "sql");
  EXPECT_EQ(profile->Get(0, 1).AsInt64(), 0);
  EXPECT_NE(profile->Get(0, 3).AsString().find("rows=1"), std::string::npos);
  // PROFILE is case-insensitive; errors still surface as errors.
  EXPECT_TRUE(veo_.Sql("profile SELECT name FROM vault_rasters").ok());
  EXPECT_FALSE(veo_.Sql("PROFILE SELECT * FROM nope").ok());
}

/// Detail column of the first PROFILE row for span `name` ("" if none).
std::string SpanDetail(const storage::Table& profile, const std::string& name) {
  for (size_t r = 0; r < profile.num_rows(); ++r) {
    if (profile.Get(r, 0).AsString() == name) {
      return profile.Get(r, 3).AsString();
    }
  }
  return "";
}

TEST_F(ObservatoryTest, ProfileShowsLateMaterialisation) {
  ASSERT_TRUE(veo_.Sql("CREATE TABLE m (id INT, band VARCHAR, temp DOUBLE)")
                  .ok());
  ASSERT_TRUE(veo_.Sql("INSERT INTO m VALUES (1, 'IR039', 310.0), "
                       "(2, 'IR108', 290.0), (3, 'IR039', 305.0), "
                       "(4, 'VIS006', 320.0)")
                  .ok());
  // count(*) reads no column through the candidate list.
  auto count =
      veo_.Sql("PROFILE SELECT count(*) AS n FROM m WHERE temp > 300.0");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  std::string filter = SpanDetail(*count, "filter");
  EXPECT_NE(filter.find("rows_in=4"), std::string::npos) << filter;
  EXPECT_NE(filter.find("rows_out=3"), std::string::npos) << filter;
  EXPECT_NE(filter.find("columns_taken=0"), std::string::npos) << filter;
  std::string aggregate = SpanDetail(*count, "aggregate");
  EXPECT_NE(aggregate.find("rows_in=3"), std::string::npos) << aggregate;
  EXPECT_NE(aggregate.find("rows_out=1"), std::string::npos) << aggregate;
  // A projection Takes its own columns and no others.
  auto projection =
      veo_.Sql("PROFILE SELECT id, band FROM m WHERE temp > 300.0");
  ASSERT_TRUE(projection.ok()) << projection.status().ToString();
  filter = SpanDetail(*projection, "filter");
  EXPECT_NE(filter.find("columns_taken=2"), std::string::npos) << filter;
  auto grouped =
      veo_.Sql("PROFILE SELECT band, max(temp) AS mx FROM m GROUP BY band");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  aggregate = SpanDetail(*grouped, "aggregate");
  EXPECT_NE(aggregate.find("rows_in=4"), std::string::npos) << aggregate;
  EXPECT_NE(aggregate.find("rows_out=3"), std::string::npos) << aggregate;
}

TEST_F(ObservatoryTest, ProfileSciQlReturnsSpanTree) {
  ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  ASSERT_TRUE(veo_.RegisterRaster("msg").ok());
  auto profile =
      veo_.SciQl("PROFILE SELECT y, x FROM \"msg\"[0:8, 0:8] WHERE IR039 > 0");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::set<std::string> names = SpanNames(*profile);
  EXPECT_TRUE(names.count("sciql"));
  EXPECT_TRUE(names.count("parse"));
  EXPECT_TRUE(names.count("materialize"));
  EXPECT_TRUE(names.count("plan"));
  EXPECT_TRUE(names.count("execute"));
}

TEST_F(ObservatoryTest, ProfileStSparqlReturnsSpanTree) {
  auto profile = veo_.StSparql(
      "PROFILE SELECT ?c WHERE { ?c a <http://www.w3.org/2002/07/owl#Class> "
      "}");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::set<std::string> names = SpanNames(*profile);
  EXPECT_TRUE(names.count("stsparql"));
  EXPECT_TRUE(names.count("parse"));
  EXPECT_TRUE(names.count("plan"));
  EXPECT_TRUE(names.count("execute"));
}

TEST_F(ObservatoryTest, FireChainPopulatesMetrics) {
  obs::MetricsRegistry::Global().Reset();
  ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kThreshold;
  config.classifier.threshold_kelvin = 315.0;
  auto result = veo_.RunFireChain("msg", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The chain trace drives the timings and records the tier spans.
  EXPECT_EQ(result->trace.name, "noa.chain");
  ASSERT_EQ(result->timings.size(), 4u);
  EXPECT_EQ(result->timings[0].step, "ingestion");
  EXPECT_EQ(result->timings[1].step, "crop+classify (SciQL)");
  EXPECT_NE(result->trace.Find("vault.ingest"), nullptr);
  EXPECT_NE(result->trace.Find("sciql.statement"), nullptr);
  // MetricsText() reports nonzero ingest/classification/extraction work.
  std::string text = veo_.MetricsText();
  EXPECT_GT(ExpositionValue(text, "teleios_vault_rasters_ingested_total"), 0);
  EXPECT_GT(ExpositionValue(text, "teleios_noa_fire_pixels_total"), 0);
  EXPECT_GT(ExpositionValue(text, "teleios_noa_hotspots_extracted_total"), 0);
  EXPECT_GT(ExpositionValue(text, "teleios_noa_chain_runs_total"), 0);
  EXPECT_GT(
      ExpositionValue(
          text, "teleios_noa_stage_millis_count{stage=\"classification\"}"),
      0);
  EXPECT_NE(text.find("teleios_noa_chain_millis"), std::string::npos);
  // And the JSON exposition carries the same counter.
  EXPECT_NE(veo_.MetricsJson().find("\"teleios_noa_chain_runs_total\": "),
            std::string::npos);
}

}  // namespace
}  // namespace teleios::core
