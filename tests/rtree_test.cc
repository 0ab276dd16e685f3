#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "geo/rtree.h"

namespace teleios::geo {
namespace {

/// Deterministic pseudo-random boxes.
std::vector<RTree::Entry> MakeBoxes(size_t n, uint64_t seed) {
  std::vector<RTree::Entry> entries;
  uint64_t state = seed ? seed : 1;
  auto next = [&]() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return static_cast<double>((state * 0x2545f4914f6cdd1dull) >> 11) /
           9007199254740992.0;
  };
  for (size_t i = 0; i < n; ++i) {
    double x = next() * 100;
    double y = next() * 100;
    double w = next() * 5;
    double h = next() * 5;
    entries.push_back({{x, y, x + w, y + h}, static_cast<int64_t>(i)});
  }
  return entries;
}

std::vector<int64_t> BruteForce(const std::vector<RTree::Entry>& entries,
                                const Envelope& query) {
  std::vector<int64_t> out;
  for (const auto& e : entries) {
    if (e.box.Intersects(query)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Query({0, 0, 100, 100}).empty());
}

TEST(RTreeTest, SingleEntry) {
  RTree tree;
  tree.Insert({1, 1, 2, 2}, 42);
  auto hits = tree.Query({0, 0, 3, 3});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42);
  EXPECT_TRUE(tree.Query({5, 5, 6, 6}).empty());
}

TEST(RTreeTest, BulkLoadFindsEverything) {
  auto entries = MakeBoxes(500, 7);
  RTree tree;
  tree.BulkLoad(entries);
  EXPECT_EQ(tree.size(), 500u);
  auto all = tree.Query({-10, -10, 200, 200});
  EXPECT_EQ(all.size(), 500u);
  EXPECT_GT(tree.height(), 1);
}

TEST(RTreeTest, BulkLoadMatchesBruteForce) {
  auto entries = MakeBoxes(300, 11);
  RTree tree;
  tree.BulkLoad(entries);
  const Envelope queries[] = {
      {10, 10, 20, 20}, {0, 0, 5, 5}, {50, 50, 51, 51}, {90, 0, 100, 100}};
  for (const Envelope& q : queries) {
    auto hits = tree.Query(q);
    std::sort(hits.begin(), hits.end());
    EXPECT_EQ(hits, BruteForce(entries, q));
  }
}

TEST(RTreeTest, IncrementalInsertMatchesBruteForce) {
  auto entries = MakeBoxes(400, 23);
  RTree tree(8);
  for (const auto& e : entries) tree.Insert(e.box, e.id);
  EXPECT_EQ(tree.size(), 400u);
  const Envelope queries[] = {
      {25, 25, 40, 40}, {0, 90, 100, 100}, {60, 60, 60.5, 60.5}};
  for (const Envelope& q : queries) {
    auto hits = tree.Query(q);
    std::sort(hits.begin(), hits.end());
    EXPECT_EQ(hits, BruteForce(entries, q));
  }
}

TEST(RTreeTest, MixedBulkThenInsert) {
  auto base = MakeBoxes(100, 3);
  RTree tree;
  tree.BulkLoad(base);
  auto extra = MakeBoxes(100, 17);
  std::vector<RTree::Entry> all = base;
  for (auto& e : extra) {
    e.id += 1000;
    tree.Insert(e.box, e.id);
    all.push_back(e);
  }
  Envelope q{30, 30, 70, 70};
  auto hits = tree.Query(q);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, BruteForce(all, q));
}

TEST(RTreeTest, QueryWithinGrowsSearchBox) {
  RTree tree;
  tree.Insert({10, 10, 11, 11}, 1);
  tree.Insert({20, 20, 21, 21}, 2);
  // Plain query at origin finds nothing; within distance 15 finds #1.
  EXPECT_TRUE(tree.Query({0, 0, 1, 1}).empty());
  auto near = tree.QueryWithin({0, 0, 1, 1}, 15.0);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0], 1);
  auto far = tree.QueryWithin({0, 0, 1, 1}, 50.0);
  EXPECT_EQ(far.size(), 2u);
}

TEST(RTreeTest, MoveSemantics) {
  RTree a;
  a.Insert({0, 0, 1, 1}, 5);
  RTree b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.Query({0, 0, 2, 2}).size(), 1u);
}

TEST(RTreeTest, BulkLoadThenInsertsKeepInvariants) {
  auto base = MakeBoxes(1000, 5);
  RTree tree;
  tree.BulkLoad(base);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  auto extra = MakeBoxes(5000, 19);
  std::vector<RTree::Entry> all = base;
  for (auto& e : extra) {
    e.id += 10000;
    tree.Insert(e.box, e.id);
    all.push_back(e);
  }
  EXPECT_EQ(tree.size(), 6000u);
  Status valid = tree.Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  for (double q0 : {0.0, 40.0, 80.0}) {
    Envelope q{q0, q0, q0 + 20, q0 + 20};
    auto hits = tree.Query(q);
    std::sort(hits.begin(), hits.end());
    EXPECT_EQ(hits, BruteForce(all, q));
  }
}

/// Property sweep over sizes and fanouts: tree results always equal brute
/// force on a fixed query battery.
class RTreeSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RTreeSweep, EquivalentToBruteForce) {
  auto [n, fanout] = GetParam();
  auto entries = MakeBoxes(static_cast<size_t>(n), 31 + n);
  RTree bulk(fanout);
  bulk.BulkLoad(entries);
  RTree incremental(fanout);
  for (const auto& e : entries) incremental.Insert(e.box, e.id);
  for (double q0 : {0.0, 33.0, 66.0}) {
    Envelope q{q0, q0, q0 + 25, q0 + 25};
    auto expected = BruteForce(entries, q);
    auto from_bulk = bulk.Query(q);
    auto from_incr = incremental.Query(q);
    std::sort(from_bulk.begin(), from_bulk.end());
    std::sort(from_incr.begin(), from_incr.end());
    EXPECT_EQ(from_bulk, expected);
    EXPECT_EQ(from_incr, expected);
  }
  Status bulk_valid = bulk.Validate();
  Status incr_valid = incremental.Validate();
  EXPECT_TRUE(bulk_valid.ok()) << bulk_valid.ToString();
  EXPECT_TRUE(incr_valid.ok()) << incr_valid.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndFanouts, RTreeSweep,
    ::testing::Values(std::make_pair(1, 4), std::make_pair(17, 4),
                      std::make_pair(100, 8), std::make_pair(1000, 16),
                      std::make_pair(2048, 32)));

}  // namespace
}  // namespace teleios::geo
