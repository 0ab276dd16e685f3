#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "obs/metrics.h"
#include "strabon/spatial_functions.h"
#include "strabon/strabon.h"
#include "strabon/temporal.h"

namespace teleios::strabon {
namespace {

using rdf::Term;

TEST(SpatialFunctionsTest, RelationsOverWktLiterals) {
  GeometryCache cache;
  Term box_a = Term::WktLiteral("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
  Term box_b = Term::WktLiteral("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))");
  Term far = Term::WktLiteral("POINT (100 100)");
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  auto eval = [&](const std::string& fn, const Term& x, const Term& y) {
    auto r = EvalSpatialFunction(ns + fn, {x, y}, &cache);
    EXPECT_TRUE(r.ok()) << fn << ": " << r.status().ToString();
    return r.ok() && r->lexical == "true";
  };
  EXPECT_TRUE(eval("intersects", box_a, box_b));
  EXPECT_TRUE(eval("anyInteract", box_a, box_b));
  EXPECT_FALSE(eval("intersects", box_a, far));
  EXPECT_TRUE(eval("disjoint", box_a, far));
  EXPECT_TRUE(eval("contains", box_a,
                   Term::WktLiteral("POINT (3 3)")));
  EXPECT_TRUE(eval("within", Term::WktLiteral("POINT (3 3)"), box_a));
}

TEST(SpatialFunctionsTest, MetricsAndConstructors) {
  GeometryCache cache;
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  Term a = Term::WktLiteral("POINT (0 0)");
  Term b = Term::WktLiteral("POINT (3 4)");
  auto dist = EvalSpatialFunction(ns + "distance", {a, b}, &cache);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ(*ParseDouble(dist->lexical), 5.0);

  Term box = Term::WktLiteral("POLYGON ((0 0, 4 0, 4 3, 0 3, 0 0))");
  auto area = EvalSpatialFunction(ns + "area", {box}, &cache);
  ASSERT_TRUE(area.ok());
  EXPECT_DOUBLE_EQ(*ParseDouble(area->lexical), 12.0);

  auto buffered = EvalSpatialFunction(
      ns + "buffer", {a, Term::DoubleLiteral(1.0)}, &cache);
  ASSERT_TRUE(buffered.ok());
  EXPECT_TRUE(buffered->IsWkt());

  auto centroid = EvalSpatialFunction(ns + "centroid", {box}, &cache);
  ASSERT_TRUE(centroid.ok());
  EXPECT_NE(centroid->lexical.find("POINT"), std::string::npos);

  auto envelope = EvalSpatialFunction(ns + "envelope", {box}, &cache);
  ASSERT_TRUE(envelope.ok());
  EXPECT_NE(envelope->lexical.find("POLYGON"), std::string::npos);
}

TEST(SpatialFunctionsTest, BooleanConstructiveOps) {
  GeometryCache cache;
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  Term a = Term::WktLiteral("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
  Term b = Term::WktLiteral("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))");
  auto diff = EvalSpatialFunction(ns + "difference", {a, b}, &cache);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  auto diff_area =
      EvalSpatialFunction(ns + "area", {*diff}, &cache);
  ASSERT_TRUE(diff_area.ok());
  EXPECT_NEAR(*ParseDouble(diff_area->lexical), 75.0, 1e-6);
}

TEST(SpatialFunctionsTest, ErrorsAreClean) {
  GeometryCache cache;
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  EXPECT_FALSE(EvalSpatialFunction(ns + "nosuch",
                                   {Term::WktLiteral("POINT (0 0)")},
                                   &cache)
                   .ok());
  EXPECT_FALSE(EvalSpatialFunction(ns + "intersects",
                                   {Term::WktLiteral("POINT (0 0)")},
                                   &cache)
                   .ok());  // arity
  EXPECT_FALSE(EvalSpatialFunction(
                   ns + "area", {Term::Literal("POLYGON ((oops")}, &cache)
                   .ok());
}

TEST(SpatialFunctionsTest, GeoSparqlNamespaceAlias) {
  // The paper anticipates GeoSPARQL (§1); geof: simple-feature functions
  // are accepted as aliases of the strdf: vocabulary.
  GeometryCache cache;
  const std::string geof = "http://www.opengis.net/def/function/geosparql/";
  Term box = Term::WktLiteral("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
  Term pt = Term::WktLiteral("POINT (5 5)");
  EXPECT_TRUE(IsSpatialFunction(geof + "sfIntersects"));
  auto r = EvalSpatialFunction(geof + "sfContains", {box, pt}, &cache);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->lexical, "true");
  auto d = EvalSpatialFunction(geof + "distance",
                               {pt, Term::WktLiteral("POINT (5 9)")},
                               &cache);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*ParseDouble(d->lexical), 4.0);
  EXPECT_EQ(RelationOf(geof + "sfWithin"), SpatialRelation::kWithin);
}

TEST(TemporalTest, DateTimeParseFormatRoundTrip) {
  auto t = ParseDateTime("2007-08-25T14:30:05");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(FormatDateTime(*t), "2007-08-25T14:30:05");
  auto date_only = ParseDateTime("2007-08-25");
  ASSERT_TRUE(date_only.ok());
  EXPECT_EQ(*t - *date_only, 14 * 3600 + 30 * 60 + 5);
  EXPECT_FALSE(ParseDateTime("not-a-date").ok());
  EXPECT_FALSE(ParseDateTime("2007-13-01").ok());
}

TEST(TemporalTest, LeapYearHandling) {
  auto feb29 = ParseDateTime("2008-02-29T00:00:00");
  ASSERT_TRUE(feb29.ok());
  auto mar1 = ParseDateTime("2008-03-01T00:00:00");
  ASSERT_TRUE(mar1.ok());
  EXPECT_EQ(*mar1 - *feb29, 86400);
  EXPECT_EQ(FormatDateTime(*feb29), "2008-02-29T00:00:00");
}

TEST(TemporalTest, PeriodLiterals) {
  auto p = ParsePeriod("[2007-08-25T00:00:00, 2007-08-26T00:00:00]");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->end - p->start, 86400);
  EXPECT_FALSE(ParsePeriod("2007-08-25").ok());
  EXPECT_FALSE(
      ParsePeriod("[2007-08-26T00:00:00, 2007-08-25T00:00:00]").ok());
  Term lit = PeriodLiteral(p->start, p->end);
  EXPECT_EQ(lit.datatype, rdf::kStrdfPeriod);
  auto back = ParsePeriod(lit.lexical);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->start, p->start);
}

TEST(TemporalTest, AllenRelations) {
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  Term aug25 = PeriodLiteral(*ParseDateTime("2007-08-25T00:00:00"),
                             *ParseDateTime("2007-08-26T00:00:00"));
  Term aug = PeriodLiteral(*ParseDateTime("2007-08-01T00:00:00"),
                           *ParseDateTime("2007-09-01T00:00:00"));
  Term july = PeriodLiteral(*ParseDateTime("2007-07-01T00:00:00"),
                            *ParseDateTime("2007-08-01T00:00:00"));
  auto check = [&](const std::string& fn, const Term& x, const Term& y,
                   bool expected) {
    auto r = EvalTemporalFunction(ns + fn, {x, y});
    ASSERT_TRUE(r.ok()) << fn << ": " << r.status().ToString();
    EXPECT_EQ(r->lexical == "true", expected) << fn;
  };
  check("during", aug25, aug, true);
  check("during", aug, aug25, false);
  check("periodContains", aug, aug25, true);
  check("before", july, aug25, true);  // july ends before Aug 25 starts
  check("before", july, aug, false);   // july meets aug (shared instant)
  check("after", aug25, july, true);
  check("overlaps", aug25, aug, true);
  check("meets", july, aug, true);
  check("periodIntersects", july, aug25, false);
}

TEST(TemporalTest, DateTimeAsInstantaneousPeriod) {
  const std::string ns = "http://strdf.di.uoa.gr/ontology#";
  Term instant =
      Term::Literal("2007-08-25T12:00:00", rdf::kXsdDateTime);
  Term day = PeriodLiteral(*ParseDateTime("2007-08-25T00:00:00"),
                           *ParseDateTime("2007-08-26T00:00:00"));
  auto r = EvalTemporalFunction(ns + "during", {instant, day});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->lexical, "true");
}

class StSparqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three hotspots, one over the sea; a sea polygon; one town.
    ASSERT_TRUE(strabon_
                    .LoadTurtle(R"ttl(
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
noa:h1 a noa:Hotspot ;
  noa:hasGeometry "POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))"^^strdf:WKT ;
  noa:detectedAt "2007-08-25T10:00:00"^^xsd:dateTime .
noa:h2 a noa:Hotspot ;
  noa:hasGeometry "POLYGON ((8 8, 9 8, 9 9, 8 9, 8 8))"^^strdf:WKT ;
  noa:detectedAt "2007-08-26T10:00:00"^^xsd:dateTime .
noa:h3 a noa:Hotspot ;
  noa:hasGeometry "POLYGON ((20 20, 21 20, 21 21, 20 21, 20 20))"^^strdf:WKT ;
  noa:detectedAt "2007-08-25T15:00:00"^^xsd:dateTime .
noa:town a noa:Town ;
  noa:hasGeometry "POINT (2.5 1.5)"^^strdf:WKT .
)ttl")
                    .ok());
  }

  size_t Count(const std::string& query) {
    auto r = strabon_.Select(query);
    EXPECT_TRUE(r.ok()) << query << " -> " << r.status().ToString();
    return r.ok() ? r->rows.size() : 0;
  }

  Strabon strabon_;
};

TEST_F(StSparqlTest, SpatialSelectionWithinBox) {
  std::string q =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "FILTER(strdf:within(?g, \"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 "
      "0))\"^^strdf:WKT)) }";
  EXPECT_EQ(Count(q), 2u);
}

TEST_F(StSparqlTest, SpatialIndexAndScanAgree) {
  std::string q =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "FILTER(strdf:intersects(?g, \"POLYGON ((0 0, 5 0, 5 5, 0 5, 0 "
      "0))\"^^strdf:WKT)) }";
  strabon_.set_spatial_index_enabled(true);
  size_t with_index = Count(q);
  strabon_.set_spatial_index_enabled(false);
  size_t without_index = Count(q);
  EXPECT_EQ(with_index, without_index);
  EXPECT_EQ(with_index, 1u);
  strabon_.set_spatial_index_enabled(true);
  EXPECT_GT(strabon_.indexed_geometries(), 0u);
}

TEST_F(StSparqlTest, DistanceFilter) {
  std::string q =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "FILTER(strdf:distance(?g, \"POINT (2.5 1.5)\"^^strdf:WKT) < 1.0) }";
  EXPECT_EQ(Count(q), 1u);  // h1 is 0.5 away, h2 ~8.7, h3 far
}

TEST_F(StSparqlTest, SpatialJoinBetweenVariables) {
  std::string q =
      "SELECT ?h ?t WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?hg . "
      "?t a noa:Town ; noa:hasGeometry ?tg . "
      "FILTER(strdf:distance(?hg, ?tg) < 1.0) }";
  EXPECT_EQ(Count(q), 1u);
}

TEST_F(StSparqlTest, TemporalFilter) {
  std::string q =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:detectedAt ?t . "
      "FILTER(?t >= \"2007-08-25T00:00:00\"^^xsd:dateTime && "
      "?t < \"2007-08-26T00:00:00\"^^xsd:dateTime) }";
  EXPECT_EQ(Count(q), 2u);
}

TEST_F(StSparqlTest, TemporalPeriodFunctionInFilter) {
  std::string q =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:detectedAt ?t . "
      "FILTER(strdf:during(?t, \"[2007-08-25T00:00:00, "
      "2007-08-25T23:59:59]\"^^strdf:period)) }";
  EXPECT_EQ(Count(q), 2u);
}

TEST_F(StSparqlTest, BindSpatialConstructor) {
  std::string q =
      "SELECT ?h ?a WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "BIND(strdf:area(?g) AS ?a) FILTER(?a > 0.5) }";
  EXPECT_EQ(Count(q), 3u);  // all unit squares have area 1
}

TEST_F(StSparqlTest, SpatialIndexSeesPostUpdateGeometries) {
  std::string window =
      "\"POLYGON ((40 40, 50 40, 50 50, 40 50, 40 40))\"^^strdf:WKT";
  std::string query =
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "FILTER(strdf:within(?g, " + window + ")) }";
  // Warm the index: nothing in the window yet.
  EXPECT_EQ(Count(query), 0u);
  auto& metrics = obs::MetricsRegistry::Global();
  uint64_t builds =
      metrics.GetCounter("teleios_strabon_index_builds_total")->value();
  uint64_t inserts =
      metrics.GetCounter("teleios_strabon_index_inserts_total")->value();
  size_t indexed = strabon_.indexed_geometries();
  // Insert a new hotspot inside the window; the R-tree must catch up
  // with it, not serve stale candidates.
  ASSERT_TRUE(strabon_
                  .Update("INSERT DATA { noa:h4 a noa:Hotspot ; "
                          "noa:hasGeometry \"POLYGON ((44 44, 45 44, 45 "
                          "45, 44 45, 44 44))\"^^strdf:WKT }")
                  .ok());
  EXPECT_EQ(Count(query), 1u);
  // It caught up by one insertion, not by a rebuild.
  EXPECT_EQ(metrics.GetCounter("teleios_strabon_index_builds_total")->value(),
            builds);
  EXPECT_EQ(
      metrics.GetCounter("teleios_strabon_index_inserts_total")->value(),
      inserts + 1);
  EXPECT_EQ(strabon_.indexed_geometries(), indexed + 1);
  EXPECT_EQ(metrics.GetGauge("teleios_strabon_indexed_geometries")->value(),
            static_cast<double>(indexed + 1));
}

TEST_F(StSparqlTest, GeometryUpdateViaDifference) {
  // The refinement idiom: replace a geometry by its difference with a
  // mask region.
  auto n = strabon_.Update(
      "DELETE { ?h noa:hasGeometry ?g } "
      "INSERT { ?h noa:hasGeometry ?ng } "
      "WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
      "BIND(strdf:difference(?g, \"POLYGON ((1.5 0, 3 0, 3 3, 1.5 3, 1.5 "
      "0))\"^^strdf:WKT) AS ?ng) "
      "FILTER(strdf:intersects(?g, \"POLYGON ((1.5 0, 3 0, 3 3, 1.5 3, 1.5 "
      "0))\"^^strdf:WKT)) }");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 2u);  // h1: one delete + one insert
  // h1's new geometry has half the area.
  auto r = strabon_.Select(
      "SELECT ?g WHERE { noa:h1 noa:hasGeometry ?g }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  GeometryCache cache;
  auto geom = cache.Get(strabon_.store().dict().At(r->rows[0][0]));
  ASSERT_TRUE(geom.ok());
  EXPECT_NEAR((*geom)->Area(), 0.5, 1e-6);
}

/// Rows rendered as N-Triples, in the solution order.
std::vector<std::string> RenderRows(const Strabon& strabon,
                                    const SolutionSet& solutions) {
  std::vector<std::string> rows;
  for (const auto& row : solutions.rows) {
    std::string line;
    for (rdf::TermId id : row) {
      line += (id == rdf::kNoTerm ? std::string("UNBOUND")
                                  : strabon.store().dict().At(id).ToNTriples()) +
              " ";
    }
    rows.push_back(std::move(line));
  }
  return rows;
}

/// A BGP whose patterns with two ground terms share one unbound variable
/// starts from the smallest index range. Whatever order the patterns are
/// written in, the rows and their order are the same.
TEST(BgpOrderTest, SameVariableRangesGiveTheSameRowsInAnyOrder) {
  Strabon strabon;
  std::string turtle = "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 300; ++i) {
    turtle += StrFormat("ex:x%d a ex:%s ; ex:in ex:g%d ; ex:v %d .\n", i,
                        i % 3 == 0 ? "D" : "C", i % 50, i);
  }
  turtle += "ex:g7 ex:has ex:x7 , ex:x57 , ex:x157 , ex:x158 .\n";
  ASSERT_TRUE(strabon.LoadTurtle(turtle).ok());

  const std::string prefix = "PREFIX ex: <http://example.org/> ";
  for (const char* absent : {"", "?x ex:in ex:nowhere"}) {
    std::vector<std::string> patterns = {"?x a ex:C", "?x ex:in ex:g7",
                                         "ex:g7 ex:has ?x", "?x ex:v ?v"};
    if (*absent != '\0') patterns.push_back(absent);
    std::sort(patterns.begin(), patterns.end());
    std::vector<std::string> first;
    int orders = 0;
    do {
      std::string where;
      for (const std::string& p : patterns) where += p + " . ";
      auto rows = strabon.Select(prefix + "SELECT ?x ?v WHERE { " + where + "}");
      ASSERT_TRUE(rows.ok()) << where;
      std::vector<std::string> rendered = RenderRows(strabon, *rows);
      if (orders++ == 0) first = rendered;
      EXPECT_EQ(rendered, first) << where;
    } while (std::next_permutation(patterns.begin(), patterns.end()));
    if (*absent != '\0') {
      EXPECT_TRUE(first.empty());
    } else {
      // x7 and x157 are in g7, listed by g7 and of class C (x57 is a D).
      ASSERT_EQ(first.size(), 2u);
      EXPECT_EQ(first[0].rfind("<http://example.org/x7> ", 0), 0u) << first[0];
      EXPECT_EQ(first[1].rfind("<http://example.org/x157> ", 0), 0u) << first[1];
    }
  }
}

/// Differential check of the live indexes: a seeded stream of INSERT
/// DATA, DELETE DATA, DELETE-WHERE and Turtle loads, each followed by
/// spatial windows and distance selections. Every answer must equal the
/// same store's with the R-tree off, rows in the same order, and a fresh
/// store's loaded from ToTurtle() (as a multiset: a reload renumbers the
/// terms, which reorders rows).
TEST(LiveIndexDifferentialTest, UpdateStreamMatchesScanAndReload) {
  const std::string prefix =
      "PREFIX ex: <http://example.org/> "
      "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#> ";
  for (uint64_t seed : {1u, 2u, 3u}) {
    uint64_t state = seed * 0x9e3779b97f4a7c15ull;
    auto uniform = [&]() {
      state ^= state >> 12;
      state ^= state << 25;
      state ^= state >> 27;
      return static_cast<double>((state * 0x2545f4914f6cdd1dull) >> 11) /
             9007199254740992.0;
    };
    auto pick = [&](int n) {
      return static_cast<int>(uniform() * n) % n;
    };
    auto wkt = [&]() {
      double x = uniform() * 100;
      double y = uniform() * 100;
      if (pick(2) == 0) return StrFormat("POINT (%.3f %.3f)", x, y);
      double d = 0.5 + uniform() * 3;
      return StrFormat(
          "POLYGON ((%.3f %.3f, %.3f %.3f, %.3f %.3f, %.3f %.3f, %.3f %.3f))",
          x, y, x + d, y, x + d, y + d, x, y + d, x, y);
    };
    auto window = [&]() {
      double x = uniform() * 90;
      double y = uniform() * 90;
      double d = 2 + uniform() * 20;
      return StrFormat(
          "\"POLYGON ((%.3f %.3f, %.3f %.3f, %.3f %.3f, %.3f %.3f, %.3f "
          "%.3f))\"^^strdf:WKT",
          x, y, x + d, y, x + d, y + d, x, y + d, x, y);
    };
    // Ground triples of every feature ever written, by number.
    std::map<int, std::string> features;
    int next_feature = 0;
    auto feature = [&]() {
      int k = next_feature++;
      std::string text = StrFormat(
          "ex:f%d a ex:%s ; ex:name \"f%d\" ; ex:geo \"%s\"^^strdf:WKT . ",
          k, pick(2) == 0 ? "Site" : "Town", k, wkt().c_str());
      features[k] = text;
      return text;
    };

    Strabon live;
    size_t rows_seen = 0;
    for (int step = 0; step < 40; ++step) {
      std::string update;
      switch (pick(5)) {
        case 0:
        case 1:
          update = "INSERT DATA { " + feature() + feature() + "}";
          break;
        case 2: {
          // Re-states an existing feature half the time (a no-op
          // delete when an earlier update already removed it).
          int k = next_feature == 0 ? 0 : pick(next_feature);
          update = "DELETE DATA { " +
                   (features.count(k) ? features[k] : feature()) + "}";
          break;
        }
        case 3:
          update = pick(2) == 0
                       ? "DELETE { ?f ?p ?o } WHERE { ?f a ex:Town ; "
                         "ex:geo ?g ; ?p ?o . FILTER(strdf:intersects(?g, " +
                             window() + ")) }"
                       : StrFormat("DELETE WHERE { ?f ex:name \"f%d\" ; "
                                   "?p ?o . }",
                                   next_feature == 0 ? 0
                                                     : pick(next_feature));
          break;
        default: {
          std::string turtle =
              "@prefix ex: <http://example.org/> .\n"
              "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n";
          for (int i = 0; i < 20; ++i) turtle += feature() + "\n";
          // Load the last feature twice: duplicates must not count.
          turtle += features[next_feature - 1] + "\n";
          ASSERT_TRUE(live.LoadTurtle(turtle).ok());
          break;
        }
      }
      if (!update.empty()) {
        auto n = live.Update(prefix + update);
        ASSERT_TRUE(n.ok()) << update << " -> " << n.status().ToString();
      }

      Strabon reloaded;
      ASSERT_TRUE(reloaded.LoadTurtle(live.ToTurtle()).ok());
      ASSERT_EQ(reloaded.size(), live.size()) << "seed " << seed;
      auto point = StrFormat("\"POINT (%.3f %.3f)\"^^strdf:WKT",
                             uniform() * 100, uniform() * 100);
      const std::string queries[] = {
          "SELECT ?f ?g WHERE { ?f ex:geo ?g . FILTER(strdf:intersects(?g, " +
              window() + ")) }",
          "SELECT ?f WHERE { ?f a ex:Town ; ex:geo ?g . "
          "FILTER(strdf:intersects(?g, " + window() + ")) }",
          "SELECT ?f ?n WHERE { ?f ex:geo ?g ; ex:name ?n . "
          "FILTER(strdf:distance(?g, " + point + ") < " +
              StrFormat("%.2f", 3 + uniform() * 10) + ") }"};
      for (const std::string& q : queries) {
        live.set_spatial_index_enabled(true);
        auto indexed = live.Select(prefix + q);
        live.set_spatial_index_enabled(false);
        auto scanned = live.Select(prefix + q);
        live.set_spatial_index_enabled(true);
        auto fresh = reloaded.Select(prefix + q);
        ASSERT_TRUE(indexed.ok() && scanned.ok() && fresh.ok()) << q;
        std::vector<std::string> rows = RenderRows(live, *indexed);
        rows_seen += rows.size();
        EXPECT_EQ(rows, RenderRows(live, *scanned))
            << "seed " << seed << " step " << step << ": " << q;
        std::vector<std::string> fresh_rows = RenderRows(reloaded, *fresh);
        std::sort(rows.begin(), rows.end());
        std::sort(fresh_rows.begin(), fresh_rows.end());
        EXPECT_EQ(rows, fresh_rows)
            << "seed " << seed << " step " << step << ": " << q;
      }
    }
    EXPECT_GT(rows_seen, 40u) << "seed " << seed;
    EXPECT_GT(live.indexed_geometries(), 0u);
  }
}

}  // namespace
}  // namespace teleios::strabon
