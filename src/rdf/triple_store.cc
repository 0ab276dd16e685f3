#include "rdf/triple_store.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace teleios::rdf {

namespace {

/// The order of a run: `Lead` packs the first two positions of its key
/// into one integer (flipping the sign bit keeps signed ids in order),
/// `Third` is the last.
uint64_t Pack(TermId a, TermId b) {
  return uint64_t{static_cast<uint32_t>(a) ^ 0x80000000u} << 32 |
         (static_cast<uint32_t>(b) ^ 0x80000000u);
}

struct Spo {
  static uint64_t Lead(const Triple& t) { return Pack(t.s, t.p); }
  static TermId Third(const Triple& t) { return t.o; }
};

struct Pos {
  static uint64_t Lead(const Triple& t) { return Pack(t.p, t.o); }
  static TermId Third(const Triple& t) { return t.s; }
};

struct Osp {
  static uint64_t Lead(const Triple& t) { return Pack(t.o, t.s); }
  static TermId Third(const Triple& t) { return t.p; }
};

template <typename Order>
struct ByKey {
  bool operator()(const Triple& a, const Triple& b) const {
    uint64_t x = Order::Lead(a);
    uint64_t y = Order::Lead(b);
    return x != y ? x < y : Order::Third(a) < Order::Third(b);
  }
};

/// Merges the sorted `batch` (disjoint from `run`) into the sorted `run`
/// in place, back to front, so only the run's tail past the batch's
/// smallest triple moves.
template <typename Less>
void MergeInto(std::vector<Triple>* run, const std::vector<Triple>& batch,
               Less less) {
  size_t i = run->size();
  size_t j = batch.size();
  run->resize(i + j);
  size_t k = run->size();
  while (j > 0) {
    if (i > 0 && less(batch[j - 1], (*run)[i - 1])) {
      (*run)[--k] = (*run)[--i];
    } else {
      (*run)[--k] = batch[--j];
    }
  }
}

/// Drops from the sorted `run` every triple in the sorted `doomed`, in
/// one pass starting at the first triple that can go.
template <typename Less>
void EraseSorted(std::vector<Triple>* run, const std::vector<Triple>& doomed,
                 Less less) {
  auto w = std::lower_bound(run->begin(), run->end(), doomed.front(), less);
  auto j = doomed.begin();
  for (auto r = w; r != run->end(); ++r) {
    while (j != doomed.end() && less(*j, *r)) ++j;
    if (j == doomed.end()) {
      w = w == r ? run->end() : std::move(r, run->end(), w);
      break;
    }
    if (!(*j == *r)) *w++ = *r;
  }
  run->erase(w, run->end());
}

/// The first triple of `run` whose lead is at least `lead` (or, when
/// `kAbove`, above it). The binary search takes no branch (Khuong &
/// Morin, "Array Layouts for Comparison-Based Searching", 2017): a
/// branchy one mispredicts about half its steps, which costs more than
/// the memory it reads when the run fits in cache.
template <typename Order, bool kAbove>
const Triple* LeadBound(const std::vector<Triple>& run, uint64_t lead) {
  auto before = [lead](const Triple& t) {
    return kAbove ? Order::Lead(t) <= lead : Order::Lead(t) < lead;
  };
  const Triple* it = run.data();
  for (size_t n = run.size(); n > 1; n -= n / 2) {
    it = before(it[n / 2 - 1]) ? it + n / 2 : it;
  }
  if (!run.empty() && before(*it)) ++it;
  return it;
}

/// The triples of `run` matching the pattern, whose bound positions
/// must form a key prefix of `run`'s order, so they are contiguous.
template <typename Order>
std::span<const Triple> PrefixSlice(const std::vector<Triple>& run,
                                    const TriplePattern& pat) {
  constexpr TermId kMin = std::numeric_limits<TermId>::min();
  constexpr TermId kMax = std::numeric_limits<TermId>::max();
  Triple lo{pat.s.value_or(kMin), pat.p.value_or(kMin), pat.o.value_or(kMin)};
  Triple hi{pat.s.value_or(kMax), pat.p.value_or(kMax), pat.o.value_or(kMax)};
  const Triple* first = LeadBound<Order, false>(run, Order::Lead(lo));
  const Triple* last = LeadBound<Order, true>(run, Order::Lead(hi));
  if (Order::Third(lo) == Order::Third(hi)) {  // all three bound
    auto [a, b] = std::equal_range(
        first, last, lo, [](const Triple& x, const Triple& y) {
          return Order::Third(x) < Order::Third(y);
        });
    return {a, b};
  }
  return {first, last};
}

}  // namespace

void TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  AddEncoded({dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)});
}

void TripleStore::AddEncoded(Triple t) { staged_.push_back(t); }

void TripleStore::Flush() const {
  if (staged_.empty()) return;
  std::vector<Triple> batch;
  batch.swap(staged_);
  std::sort(batch.begin(), batch.end(), ByKey<Spo>());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  batch.erase(std::remove_if(batch.begin(), batch.end(),
                             [&](const Triple& t) {
                               return std::binary_search(
                                   spo_.begin(), spo_.end(), t, ByKey<Spo>());
                             }),
              batch.end());
  if (batch.empty()) return;
  MergeInto(&spo_, batch, ByKey<Spo>());
  std::sort(batch.begin(), batch.end(), ByKey<Pos>());
  MergeInto(&pos_, batch, ByKey<Pos>());
  std::sort(batch.begin(), batch.end(), ByKey<Osp>());
  MergeInto(&osp_, batch, ByKey<Osp>());
}

std::span<const Triple> TripleStore::Slice(const TriplePattern& pat) const {
  Flush();
  if (pat.s && pat.o && !pat.p) return PrefixSlice<Osp>(osp_, pat);
  if (pat.s) return PrefixSlice<Spo>(spo_, pat);
  if (pat.p) return PrefixSlice<Pos>(pos_, pat);
  if (pat.o) return PrefixSlice<Osp>(osp_, pat);
  return spo_;
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pat) const {
  std::span<const Triple> slice = Slice(pat);
  return {slice.begin(), slice.end()};
}

std::vector<Triple> TripleStore::Match(const std::optional<Term>& s,
                                       const std::optional<Term>& p,
                                       const std::optional<Term>& o) const {
  TriplePattern pat;
  if (s) {
    TermId id = dict_.Lookup(*s);
    if (id == kNoTerm) return {};
    pat.s = id;
  }
  if (p) {
    TermId id = dict_.Lookup(*p);
    if (id == kNoTerm) return {};
    pat.p = id;
  }
  if (o) {
    TermId id = dict_.Lookup(*o);
    if (id == kNoTerm) return {};
    pat.o = id;
  }
  return Match(pat);
}

size_t TripleStore::Remove(const TriplePattern& pat) {
  return RemoveAll(Match(pat));
}

size_t TripleStore::RemoveAll(std::vector<Triple> triples) {
  Flush();
  if (triples.empty()) return 0;
  size_t before = spo_.size();
  std::sort(triples.begin(), triples.end(), ByKey<Spo>());
  EraseSorted(&spo_, triples, ByKey<Spo>());
  if (spo_.size() == before) return 0;  // none of them was stored
  std::sort(triples.begin(), triples.end(), ByKey<Pos>());
  EraseSorted(&pos_, triples, ByKey<Pos>());
  std::sort(triples.begin(), triples.end(), ByKey<Osp>());
  EraseSorted(&osp_, triples, ByKey<Osp>());
  return before - spo_.size();
}

size_t TripleStore::size() const {
  Flush();
  return spo_.size();
}

const std::vector<Triple>& TripleStore::triples() const {
  Flush();
  return spo_;
}

size_t TripleStore::MemoryUsage() const {
  return dict_.MemoryUsage() + (staged_.capacity() + spo_.capacity() +
                                pos_.capacity() + osp_.capacity()) *
                                   sizeof(Triple);
}

}  // namespace teleios::rdf
