#ifndef TELEIOS_STRABON_STRABON_H_
#define TELEIOS_STRABON_STRABON_H_

#include <map>
#include <string>

#include "common/status.h"
#include "geo/rtree.h"
#include "rdf/triple_store.h"
#include "rdf/turtle.h"
#include "storage/table.h"
#include "strabon/sparql_eval.h"
#include "strabon/sparql_parser.h"

namespace teleios::strabon {

/// The semantic geospatial database system of the TELEIOS database tier:
/// an stRDF store queryable and updatable with stSPARQL, with an R-tree
/// over all strdf:WKT literals accelerating spatial FILTER selections.
class Strabon {
 public:
  Strabon() = default;

  rdf::TripleStore& store() { return store_; }
  const rdf::TripleStore& store() const { return store_; }

  /// Loads Turtle text; returns triples added.
  Result<size_t> LoadTurtle(const std::string& text);
  Result<size_t> LoadTurtleFile(const std::string& path);

  /// Adds one triple directly.
  void Add(const rdf::Term& s, const rdf::Term& p, const rdf::Term& o);

  /// Executes a SELECT/ASK, returning the solutions.
  Result<SolutionSet> Select(const std::string& sparql);

  /// Executes a SELECT/ASK, returning a printable table (ASK yields a
  /// single boolean-ish row).
  Result<storage::Table> Query(const std::string& sparql);

  /// Executes ASK.
  Result<bool> Ask(const std::string& sparql);

  /// Executes an update (INSERT DATA / DELETE DATA / DELETE-INSERT-WHERE
  /// / DELETE WHERE); returns triples added + removed.
  Result<size_t> Update(const std::string& sparql);

  /// Spatial index control (on by default). Disabling it forces full-scan
  /// spatial filters — the baseline in the E9 benchmark.
  void set_spatial_index_enabled(bool enabled) {
    spatial_index_enabled_ = enabled;
  }
  bool spatial_index_enabled() const { return spatial_index_enabled_; }

  /// Number of geometry literals currently indexed.
  size_t indexed_geometries() const { return rtree_.size(); }

  size_t size() const { return store_.size(); }

  /// Serializes the store as Turtle with the default prefixes.
  std::string ToTurtle() const;

  /// Writes ToTurtle() to a file.
  Status SaveTurtleFile(const std::string& path) const;

 private:
  Result<SolutionSet> RunQuery(const SparqlQuery& query);
  Result<size_t> RunUpdate(const SparqlUpdate& update);

  /// Builds per-variable candidate sets from spatial filters, using the
  /// R-tree (conservative: candidate sets over-approximate, never prune a
  /// true answer).
  Result<CandidateSets> SpatialCandidates(const GroupPattern& where);

  /// Brings the R-tree up to date with the dictionary: bulk-loads the
  /// first geometries, then inserts only those of terms interned since.
  void EnsureSpatialIndex();

  rdf::TripleStore store_;
  GeometryCache cache_;
  bool spatial_index_enabled_ = true;

  // The R-tree covers the WKT terms among dictionary ids below
  // `indexed_terms_`. The dictionary only grows, so the index never goes
  // stale: it only falls behind, and catches up by insertion.
  geo::RTree rtree_;
  rdf::TermId indexed_terms_ = 0;
};

}  // namespace teleios::strabon

#endif  // TELEIOS_STRABON_STRABON_H_
