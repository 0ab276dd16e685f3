// E9 — Strabon claim ([5, 7]): semantic geospatial queries at scale over
// the column-store backend. Shapes to reproduce: dictionary-encoded bulk
// load scales linearly; BGP matching uses the permutation indexes; the
// R-tree turns spatial selections from O(n) scans into output-sensitive
// lookups, with the gap widening as the store grows.

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "strabon/strabon.h"

namespace {

using teleios::StrFormat;
using teleios::strabon::Strabon;

/// Synthetic geospatial RDF: `n` features in a 100x100 world, each with a
/// type, a name and a small polygon geometry.
std::string FeatureTurtle(int n, uint64_t seed) {
  std::ostringstream os;
  os << "@prefix ex: <http://example.org/> .\n"
     << "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n";
  uint64_t state = seed ? seed : 1;
  auto uniform = [&]() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return static_cast<double>((state * 0x2545f4914f6cdd1dull) >> 11) /
           9007199254740992.0;
  };
  for (int i = 0; i < n; ++i) {
    double x = uniform() * 100;
    double y = uniform() * 100;
    os << "ex:f" << i << " a ex:Feature ; ex:name \"feature" << i
       << "\" ; ex:geo " << '"'
       << StrFormat("POLYGON ((%.4f %.4f, %.4f %.4f, %.4f %.4f, %.4f %.4f, "
                    "%.4f %.4f))",
                    x, y, x + 0.5, y, x + 0.5, y + 0.5, x, y + 0.5, x, y)
       << "\"^^strdf:WKT .\n";
  }
  return os.str();
}

void BM_BulkLoadTurtle(benchmark::State& state) {
  std::string turtle = FeatureTurtle(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    Strabon strabon;
    auto n = strabon.LoadTurtle(turtle);
    benchmark::DoNotOptimize(*n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 3);
}
BENCHMARK(BM_BulkLoadTurtle)->Arg(1000)->Arg(10000);

void BM_BgpJoin(benchmark::State& state) {
  Strabon strabon;
  (void)strabon.LoadTurtle(FeatureTurtle(static_cast<int>(state.range(0)), 7));
  for (auto _ : state) {
    auto r = strabon.Select(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?f ?n WHERE { ?f a ex:Feature ; ex:name ?n . }");
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BgpJoin)->Arg(1000)->Arg(10000);

/// Selective BGP: bound object, should use the OSP index.
void BM_BgpBoundObject(benchmark::State& state) {
  Strabon strabon;
  (void)strabon.LoadTurtle(FeatureTurtle(static_cast<int>(state.range(0)), 7));
  for (auto _ : state) {
    auto r = strabon.Select(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?f WHERE { ?f ex:name \"feature17\" . }");
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_BgpBoundObject)->Arg(1000)->Arg(10000);

/// The headline comparison: spatial selection (small query window) with
/// the R-tree on vs off. Expect the indexed run to win and the gap to
/// grow with store size.
void SpatialSelection(benchmark::State& state, bool use_index) {
  Strabon strabon;
  (void)strabon.LoadTurtle(FeatureTurtle(static_cast<int>(state.range(0)), 7));
  strabon.set_spatial_index_enabled(use_index);
  const std::string query =
      "PREFIX ex: <http://example.org/> "
      "SELECT ?f WHERE { ?f ex:geo ?g . "
      "FILTER(strdf:intersects(?g, \"POLYGON ((10 10, 14 10, 14 14, 10 14, "
      "10 10))\"^^strdf:WKT)) }";
  // Warm the index / geometry cache outside the timed region.
  (void)strabon.Select(query);
  for (auto _ : state) {
    auto r = strabon.Select(query);
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SpatialSelectionScan(benchmark::State& state) {
  SpatialSelection(state, false);
}
void BM_SpatialSelectionRtree(benchmark::State& state) {
  SpatialSelection(state, true);
}
BENCHMARK(BM_SpatialSelectionScan)->Arg(1000)->Arg(5000)->Arg(20000);
BENCHMARK(BM_SpatialSelectionRtree)->Arg(1000)->Arg(5000)->Arg(20000);

/// Distance-based selection ("within d of point"), R-tree assisted.
void BM_DistanceSelection(benchmark::State& state) {
  Strabon strabon;
  (void)strabon.LoadTurtle(FeatureTurtle(10000, 7));
  strabon.set_spatial_index_enabled(state.range(0) == 1);
  const std::string query =
      "PREFIX ex: <http://example.org/> "
      "SELECT ?f WHERE { ?f ex:geo ?g . "
      "FILTER(strdf:distance(?g, \"POINT (50 50)\"^^strdf:WKT) < 3.0) }";
  (void)strabon.Select(query);
  for (auto _ : state) {
    auto r = strabon.Select(query);
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_DistanceSelection)->Arg(0)->Arg(1);

/// A window read right after a write: one INSERT DATA of an annotation
/// with a point geometry, then a spatial selection, over 6k geometries.
/// The write adds one WKT term, which the R-tree takes in by insertion.
void BM_WindowAfterInsert(benchmark::State& state) {
  Strabon strabon;
  (void)strabon.LoadTurtle(FeatureTurtle(6000, 7));
  const std::string window =
      "PREFIX ex: <http://example.org/> "
      "SELECT ?f WHERE { ?f ex:geo ?g . "
      "FILTER(strdf:intersects(?g, \"POLYGON ((10 10, 14 10, 14 14, 10 14, "
      "10 10))\"^^strdf:WKT)) }";
  (void)strabon.Select(window);
  int64_t k = 0;
  for (auto _ : state) {
    auto n = strabon.Update(StrFormat(
        "PREFIX ex: <http://example.org/> INSERT DATA { ex:note%lld "
        "ex:geo \"POINT (%.3f %.3f)\"^^strdf:WKT }",
        static_cast<long long>(k), static_cast<double>(k % 97),
        static_cast<double>(k % 89)));
    ++k;
    auto r = strabon.Select(window);
    benchmark::DoNotOptimize(*n + r->rows.size());
  }
}
BENCHMARK(BM_WindowAfterInsert);

/// Turtle for one product's annotation layer: a 16x16 grid of patches
/// with the five triples each that mining publishes.
std::string AnnotationTurtle(int product) {
  std::ostringstream os;
  os << "@prefix ex: <http://example.org/> .\n"
     << "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n";
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) {
      double x = product * 20 + c;
      double y = r;
      os << "<http://example.org/patch/" << product << "/" << r << "_" << c
         << "> a ex:Patch ; ex:hasConcept ex:concept" << (r * 16 + c) % 6
         << " ; ex:hasConfidence \"" << 0.5 + 0.001 * c
         << "\"^^<http://www.w3.org/2001/XMLSchema#double> ; "
         << "ex:derivedFromProduct <http://example.org/product/" << product
         << "> ; ex:hasGeometry \""
         << StrFormat("POLYGON ((%.1f %.1f, %.1f %.1f, %.1f %.1f, %.1f %.1f, "
                      "%.1f %.1f))",
                      x, y, x + 1, y, x + 1, y + 1, x, y + 1, x, y)
         << "\"^^strdf:WKT .\n";
    }
  }
  return os.str();
}

/// Retracting one product's annotations (256 patches, 1280 triples) by
/// DELETE-WHERE among 8 retained products, as the fire chain's
/// housekeeping does; the product is republished outside the timing.
void BM_RetractAnnotations(benchmark::State& state) {
  Strabon strabon;
  std::vector<std::string> products;
  for (int p = 0; p < 8; ++p) {
    products.push_back(AnnotationTurtle(p));
    (void)strabon.LoadTurtle(products.back());
  }
  int64_t k = 0;
  for (auto _ : state) {
    int p = static_cast<int>(k++ % 8);
    auto n = strabon.Update(StrFormat(
        "PREFIX ex: <http://example.org/> "
        "DELETE { ?patch ?p ?o } WHERE { ?patch a ex:Patch ; "
        "ex:derivedFromProduct <http://example.org/product/%d> ; ?p ?o . }",
        p));
    benchmark::DoNotOptimize(*n);
    state.PauseTiming();
    (void)strabon.LoadTurtle(products[static_cast<size_t>(p)]);
    benchmark::DoNotOptimize(strabon.size());  // merge the reload here
    state.ResumeTiming();
  }
}
BENCHMARK(BM_RetractAnnotations)->Unit(benchmark::kMicrosecond);

/// The fire chain dashboard's read of one product's annotation layer
/// among 8 retained products: `?p a ex:Patch` and `?p
/// ex:derivedFromProduct <P>` tie on ground terms, and the BGP starts
/// from the smaller range.
void BM_ProductPatchLayer(benchmark::State& state) {
  Strabon strabon;
  for (int p = 0; p < 8; ++p) (void)strabon.LoadTurtle(AnnotationTurtle(p));
  int64_t k = 0;
  for (auto _ : state) {
    auto r = strabon.Select(StrFormat(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p ?k ?g ?c WHERE { ?p a ex:Patch ; "
        "ex:derivedFromProduct <http://example.org/product/%d> ; "
        "ex:hasConcept ?k ; ex:hasGeometry ?g ; ex:hasConfidence ?c }",
        static_cast<int>(k++ % 8)));
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_ProductPatchLayer)->Unit(benchmark::kMicrosecond);

/// stSPARQL update throughput (the refinement workload's primitive).
void BM_DeleteInsertWhere(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Strabon strabon;
    (void)strabon.LoadTurtle(FeatureTurtle(2000, 7));
    state.ResumeTiming();
    auto n = strabon.Update(
        "PREFIX ex: <http://example.org/> "
        "DELETE { ?f a ex:Feature } INSERT { ?f a ex:Checked } "
        "WHERE { ?f a ex:Feature ; ex:geo ?g . "
        "FILTER(strdf:intersects(?g, \"POLYGON ((0 0, 50 0, 50 50, 0 50, 0 "
        "0))\"^^strdf:WKT)) }");
    benchmark::DoNotOptimize(*n);
  }
}
BENCHMARK(BM_DeleteInsertWhere)->Unit(benchmark::kMillisecond);

}  // namespace
