#ifndef TELEIOS_RDF_TRIPLE_STORE_H_
#define TELEIOS_RDF_TRIPLE_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace teleios::rdf {

struct Triple {
  TermId s;
  TermId p;
  TermId o;

  bool operator==(const Triple& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
};

/// A triple pattern; unset positions are wildcards.
struct TriplePattern {
  std::optional<TermId> s;
  std::optional<TermId> p;
  std::optional<TermId> o;
};

/// Dictionary-encoded triple store — the Strabon storage scheme over a
/// column store. The triples are held three times, as sorted,
/// deduplicated SPO, POS and OSP runs, and the runs stay live across
/// writes: added triples are staged and the whole batch is folded into
/// each run by one sort of the batch plus one linear merge, before the
/// next read; RemoveAll drops a batch in one pass per run.
class TripleStore {
 public:
  TermDictionary& dict() { return dict_; }
  const TermDictionary& dict() const { return dict_; }

  /// Interns the terms and adds the triple (duplicates are kept out).
  void Add(const Term& s, const Term& p, const Term& o);
  void AddEncoded(Triple t);

  /// Removes all triples matching the pattern; returns the count.
  size_t Remove(const TriplePattern& pattern);

  /// Removes every listed triple that is stored (the list may repeat or
  /// name absent triples); returns how many were removed.
  size_t RemoveAll(std::vector<Triple> triples);

  /// All triples matching the pattern, as a view of the run whose order
  /// puts every bound position in the key prefix: SPO order for (s),
  /// (s,p), (s,p,o) and the full scan, POS for (p), (p,o), OSP for (o),
  /// (s,o). The view is valid until the next write.
  std::span<const Triple> Slice(const TriplePattern& pattern) const;

  /// A copy of Slice(pattern).
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Convenience: match with Terms (unknown terms match nothing).
  std::vector<Triple> Match(const std::optional<Term>& s,
                            const std::optional<Term>& p,
                            const std::optional<Term>& o) const;

  /// Distinct triples stored.
  size_t size() const;
  /// All triples in SPO order.
  const std::vector<Triple>& triples() const;

  size_t MemoryUsage() const;

 private:
  /// Folds the staged additions into the three runs.
  void Flush() const;

  TermDictionary dict_;

  // Added but not yet merged (unsorted, may hold duplicates); merged
  // before any read, so reads stay const.
  mutable std::vector<Triple> staged_;
  mutable std::vector<Triple> spo_;
  mutable std::vector<Triple> pos_;
  mutable std::vector<Triple> osp_;
};

}  // namespace teleios::rdf

#endif  // TELEIOS_RDF_TRIPLE_STORE_H_
