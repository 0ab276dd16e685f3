#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"
#include "rdf/turtle.h"

namespace teleios::rdf {
namespace {

TEST(TermTest, Constructors) {
  Term iri = Term::Iri("http://example.org/a");
  EXPECT_TRUE(iri.IsIri());
  Term blank = Term::Blank("b0");
  EXPECT_TRUE(blank.IsBlank());
  Term lit = Term::Literal("hello", "", "en");
  EXPECT_TRUE(lit.IsLiteral());
  EXPECT_EQ(lit.lang, "en");
  EXPECT_EQ(Term::IntegerLiteral(5).datatype, kXsdInteger);
  EXPECT_EQ(Term::BooleanLiteral(true).lexical, "true");
  EXPECT_TRUE(Term::WktLiteral("POINT (1 2)").IsWkt());
}

TEST(TermTest, NTriplesRendering) {
  EXPECT_EQ(Term::Iri("http://x/a").ToNTriples(), "<http://x/a>");
  EXPECT_EQ(Term::Blank("n1").ToNTriples(), "_:n1");
  EXPECT_EQ(Term::Literal("hi").ToNTriples(), "\"hi\"");
  EXPECT_EQ(Term::Literal("hi", "", "el").ToNTriples(), "\"hi\"@el");
  EXPECT_EQ(Term::IntegerLiteral(3).ToNTriples(),
            "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(Term::Literal("a\"b\nc").ToNTriples(), "\"a\\\"b\\nc\"");
}

TEST(TermDictionaryTest, InternAndLookup) {
  TermDictionary dict;
  TermId a = dict.Intern(Term::Iri("http://x/a"));
  TermId b = dict.Intern(Term::Literal("a"));  // different kind, same text
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern(Term::Iri("http://x/a")), a);
  EXPECT_EQ(dict.Lookup(Term::Iri("http://x/a")), a);
  EXPECT_EQ(dict.Lookup(Term::Iri("http://x/zzz")), kNoTerm);
  EXPECT_EQ(dict.At(a).lexical, "http://x/a");
  EXPECT_EQ(dict.size(), 2);
}

class TripleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto iri = [](const std::string& s) { return Term::Iri("http://x/" + s); };
    store_.Add(iri("s1"), iri("type"), iri("Hotspot"));
    store_.Add(iri("s2"), iri("type"), iri("Hotspot"));
    store_.Add(iri("s3"), iri("type"), iri("Town"));
    store_.Add(iri("s1"), iri("conf"), Term::DoubleLiteral(0.9));
    store_.Add(iri("s1"), iri("near"), iri("s3"));
  }

  Term Iri(const std::string& s) { return Term::Iri("http://x/" + s); }

  TripleStore store_;
};

TEST_F(TripleStoreTest, MatchBySubject) {
  auto triples = store_.Match(Iri("s1"), std::nullopt, std::nullopt);
  EXPECT_EQ(triples.size(), 3u);
}

TEST_F(TripleStoreTest, MatchByPredicate) {
  auto triples = store_.Match(std::nullopt, Iri("type"), std::nullopt);
  EXPECT_EQ(triples.size(), 3u);
}

TEST_F(TripleStoreTest, MatchByObject) {
  auto triples = store_.Match(std::nullopt, std::nullopt, Iri("Hotspot"));
  EXPECT_EQ(triples.size(), 2u);
}

TEST_F(TripleStoreTest, MatchFullyBound) {
  EXPECT_EQ(store_.Match(Iri("s1"), Iri("type"), Iri("Hotspot")).size(), 1u);
  EXPECT_EQ(store_.Match(Iri("s1"), Iri("type"), Iri("Town")).size(), 0u);
}

TEST_F(TripleStoreTest, MatchUnknownTermIsEmpty) {
  EXPECT_TRUE(store_.Match(Iri("nope"), std::nullopt, std::nullopt).empty());
}

TEST_F(TripleStoreTest, MatchAll) {
  EXPECT_EQ(store_.Match(TriplePattern{}).size(), 5u);
}

TEST_F(TripleStoreTest, DuplicatesCollapse) {
  store_.Add(Iri("s1"), Iri("type"), Iri("Hotspot"));  // duplicate
  EXPECT_EQ(store_.Match(TriplePattern{}).size(), 5u);
}

TEST_F(TripleStoreTest, Remove) {
  TriplePattern pattern;
  pattern.p = store_.dict().Lookup(Iri("type"));
  size_t removed = store_.Remove(pattern);
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(store_.Match(TriplePattern{}).size(), 2u);
}

TEST_F(TripleStoreTest, RemoveAllCountsStoredTriplesOnce) {
  TermId s1 = store_.dict().Lookup(Iri("s1"));
  TermId type = store_.dict().Lookup(Iri("type"));
  TermId hotspot = store_.dict().Lookup(Iri("Hotspot"));
  TermId town = store_.dict().Lookup(Iri("Town"));
  // Listed twice, and one triple that was never stored.
  size_t removed = store_.RemoveAll(
      {{s1, type, hotspot}, {s1, type, town}, {s1, type, hotspot}});
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(store_.size(), 4u);
  EXPECT_TRUE(store_.Match(Iri("s1"), Iri("type"), std::nullopt).empty());
  EXPECT_EQ(store_.Match(std::nullopt, std::nullopt, Iri("Hotspot")).size(),
            1u);
}

TEST(TripleStoreSizeTest, DuplicatesAreNotCountedBeforeARead) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle("<http://x/a> <http://x/p> <http://x/b> .\n"
                          "<http://x/a> <http://x/p> <http://x/b> .\n",
                          &store)
                  .ok());
  // size() and triples() come first: no Match has run yet.
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.triples().size(), 1u);
  store.Add(Term::Iri("http://x/a"), Term::Iri("http://x/p"),
            Term::Iri("http://x/b"));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Match(TriplePattern{}).size(), 1u);
}

TEST(TurtleTest, ParsePrefixesAndLists) {
  TripleStore store;
  auto added = ParseTurtle(R"(
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
# a comment
ex:fire1 a ex:Hotspot ;
    ex:confidence "0.85"^^xsd:double ;
    ex:near ex:town1, ex:town2 .
ex:town1 ex:name "Kalamata"@el .
)",
                           &store);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, 5u);
  auto typed = store.Match(Term::Iri("http://example.org/fire1"),
                           Term::Iri(kRdfType), std::nullopt);
  ASSERT_EQ(typed.size(), 1u);
  auto near = store.Match(Term::Iri("http://example.org/fire1"),
                          Term::Iri("http://example.org/near"), std::nullopt);
  EXPECT_EQ(near.size(), 2u);
}

TEST(TurtleTest, ParseNumericAndBooleanShorthand) {
  TripleStore store;
  auto added = ParseTurtle(
      "@prefix ex: <http://e/> . ex:a ex:i 42 ; ex:d 3.25 ; ex:b true .",
      &store);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, 3u);
  auto ints = store.Match(std::nullopt, Term::Iri("http://e/i"),
                          Term::IntegerLiteral(42));
  EXPECT_EQ(ints.size(), 1u);
}

TEST(TurtleTest, ParseTypedWktLiteral) {
  TripleStore store;
  auto added = ParseTurtle(
      "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n"
      "@prefix ex: <http://e/> .\n"
      "ex:a ex:geo \"POINT (21.5 37.2)\"^^strdf:WKT .",
      &store);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  auto triples = store.Match(TriplePattern{});
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_TRUE(store.dict().At(triples[0].o).IsWkt());
}

TEST(TurtleTest, ParseErrors) {
  TripleStore store;
  EXPECT_FALSE(ParseTurtle("ex:a ex:b ex:c .", &store).ok());  // no prefix
  EXPECT_FALSE(
      ParseTurtle("@prefix e: <http://e/> . e:a e:b", &store).ok());  // no dot
  EXPECT_FALSE(ParseTurtle("@prefix e: <http://e/> . \"lit\" e:b e:c .",
                           &store)
                   .ok());  // literal subject
}

TEST(TurtleTest, RoundTrip) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle(R"(
@prefix ex: <http://example.org/> .
ex:s1 a ex:Hotspot ; ex:label "fire \"A\"" ; ex:conf 0.5 .
ex:s2 ex:near ex:s1 .
)",
                          &store)
                  .ok());
  std::string turtle =
      WriteTurtle(store, {{"ex", "http://example.org/"}});
  TripleStore reloaded;
  auto added = ParseTurtle(turtle, &reloaded);
  ASSERT_TRUE(added.ok()) << turtle << "\n" << added.status().ToString();
  EXPECT_EQ(reloaded.Match(TriplePattern{}).size(),
            store.Match(TriplePattern{}).size());
}

TEST(TurtleTest, BaseResolution) {
  TripleStore store;
  auto added = ParseTurtle(
      "@base <http://base.org/> . <a> <b> <http://abs.org/c> .", &store);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  auto triples = store.Match(TriplePattern{});
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(store.dict().At(triples[0].s).lexical, "http://base.org/a");
  EXPECT_EQ(store.dict().At(triples[0].o).lexical, "http://abs.org/c");
}

/// Index-correctness sweep: over a store built by interleaved Add and
/// Remove batches, Match equals a scan of a reference set for all 8
/// pattern shapes, in the order of the run that serves the shape.
class MatchSweep : public ::testing::TestWithParam<int> {};

TEST_P(MatchSweep, MatchesEqualScan) {
  int n = GetParam();
  TripleStore store;
  std::set<std::tuple<TermId, TermId, TermId>> reference;  // SPO order
  auto add = [&](int i) {
    Term s = Term::Iri("http://x/s" + std::to_string(i % 7));
    Term p = Term::Iri("http://x/p" + std::to_string(i % 3));
    Term o = Term::IntegerLiteral(i % 5);
    store.Add(s, p, o);
    reference.insert({store.dict().Lookup(s), store.dict().Lookup(p),
                      store.dict().Lookup(o)});
  };
  // Batches of adds, each followed by removing every third reference
  // triple (plus one never stored) in one RemoveAll.
  for (int begin = 0; begin < n; begin += 37) {
    for (int i = begin; i < std::min(n, begin + 37); ++i) add(i * 11 + begin);
    std::vector<Triple> doomed = {{0, 0, 12345}};
    size_t k = 0;
    for (auto it = reference.begin(); it != reference.end(); ++k) {
      if (k % 3 != 0) {
        ++it;
        continue;
      }
      doomed.push_back({std::get<0>(*it), std::get<1>(*it), std::get<2>(*it)});
      it = reference.erase(it);
    }
    EXPECT_EQ(store.RemoveAll(doomed), doomed.size() - 1);
  }
  ASSERT_EQ(store.size(), reference.size());
  if (n == 0) return;
  TermId s = store.dict().Lookup(Term::Iri("http://x/s1"));
  TermId p = store.dict().Lookup(Term::Iri("http://x/p2"));
  TermId o = store.dict().Lookup(Term::IntegerLiteral(3));
  const std::optional<TermId> none;
  const TriplePattern patterns[] = {
      {none, none, none}, {s, none, none}, {none, p, none}, {none, none, o},
      {s, p, none},       {none, p, o},    {s, none, o},    {s, p, o}};
  for (const TriplePattern& pattern : patterns) {
    std::vector<Triple> expected;
    for (const auto& [ts, tp, to] : reference) {
      if ((!pattern.s || *pattern.s == ts) &&
          (!pattern.p || *pattern.p == tp) &&
          (!pattern.o || *pattern.o == to)) {
        expected.push_back({ts, tp, to});
      }
    }
    // Shapes served by POS come in (p,o,s) order, by OSP in (o,s,p).
    auto key = [&](const Triple& t) {
      if (!pattern.s && pattern.p) return std::tuple(t.p, t.o, t.s);
      if (pattern.o && !pattern.p) return std::tuple(t.o, t.s, t.p);
      return std::tuple(t.s, t.p, t.o);
    };
    std::sort(expected.begin(), expected.end(),
              [&](const Triple& a, const Triple& b) { return key(a) < key(b); });
    EXPECT_EQ(store.Match(pattern), expected)
        << "s=" << pattern.s.has_value() << " p=" << pattern.p.has_value()
        << " o=" << pattern.o.has_value();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatchSweep,
                         ::testing::Values(0, 1, 10, 105, 1000));

}  // namespace
}  // namespace teleios::rdf
