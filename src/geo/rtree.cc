#include "geo/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

namespace teleios::geo {

struct RTree::Node {
  Envelope box = Envelope::Empty();
  bool leaf = true;
  std::vector<Entry> entries;                   // leaf payload
  std::vector<std::unique_ptr<Node>> children;  // inner payload

  size_t Count() const { return leaf ? entries.size() : children.size(); }

  void Recompute() {
    box = Envelope::Empty();
    if (leaf) {
      for (const Entry& e : entries) box.Expand(e.box);
    } else {
      for (const auto& c : children) box.Expand(c->box);
    }
  }
};

RTree::RTree(int max_entries)
    : max_entries_(std::max(4, max_entries)),
      min_entries_(std::max(2, max_entries_ * 2 / 5)) {
  root_ = std::make_unique<Node>();
}

RTree::~RTree() = default;
RTree::RTree(RTree&&) noexcept = default;
RTree& RTree::operator=(RTree&&) noexcept = default;

namespace {

double EnlargementNeeded(const Envelope& box, const Envelope& add) {
  Envelope grown = box;
  grown.Expand(add);
  return grown.Area() - box.Area();
}

const Envelope& BoxOf(const RTree::Entry& e) { return e.box; }
template <typename NodePtr>
const Envelope& BoxOf(const NodePtr& n) {
  return n->box;
}

/// Sort-tile-recursive packing: sorts `items` by center x, cuts them into
/// ceil(sqrt(P)) vertical strips for P = ceil(n / cap) parents, sorts
/// each strip by center y and cuts it into runs of at most `cap` items,
/// calling `emit(begin, end)` per run. Strips and runs are cut evenly, so
/// with more than `cap` items every run holds at least cap / 2.
template <typename T, typename Emit>
void StrPack(std::vector<T>* items, size_t cap, Emit emit) {
  auto by = [](double Point::*axis) {
    return [axis](const T& a, const T& b) {
      return BoxOf(a).Center().*axis < BoxOf(b).Center().*axis;
    };
  };
  size_t n = items->size();
  std::sort(items->begin(), items->end(), by(&Point::x));
  size_t parents = (n + cap - 1) / cap;
  size_t strips = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(parents))));
  for (size_t s = 0; s < strips; ++s) {
    size_t begin = n * s / strips;
    size_t end = n * (s + 1) / strips;
    std::sort(items->begin() + static_cast<long>(begin),
              items->begin() + static_cast<long>(end), by(&Point::y));
    size_t k = end - begin;
    size_t runs = (k + cap - 1) / cap;
    for (size_t r = 0; r < runs; ++r) {
      emit(begin + k * r / runs, begin + k * (r + 1) / runs);
    }
  }
}

/// Guttman's quadratic split: seeds the two groups with the pair wasting
/// the most area, then repeatedly places the item with the strongest
/// preference, topping up a group that needs every remaining item to
/// reach `min_fill`. `*items` keeps the first group; returns the second.
template <typename T>
std::vector<T> QuadraticSplit(std::vector<T>* items, size_t min_fill) {
  std::vector<T> all = std::move(*items);
  items->clear();
  size_t seed_a = 0;
  size_t seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      Envelope e = BoxOf(all[i]);
      e.Expand(BoxOf(all[j]));
      double waste = e.Area() - BoxOf(all[i]).Area() - BoxOf(all[j]).Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  std::vector<T> other;
  Envelope box_a = BoxOf(all[seed_a]);
  Envelope box_b = BoxOf(all[seed_b]);
  std::vector<char> placed(all.size(), 0);
  placed[seed_a] = placed[seed_b] = 1;
  items->push_back(std::move(all[seed_a]));
  other.push_back(std::move(all[seed_b]));
  size_t left = all.size() - 2;
  auto place = [&](size_t i, bool to_a) {
    (to_a ? box_a : box_b).Expand(BoxOf(all[i]));
    (to_a ? *items : other).push_back(std::move(all[i]));
    placed[i] = 1;
    --left;
  };
  while (left > 0) {
    if (items->size() + left <= min_fill || other.size() + left <= min_fill) {
      bool to_a = items->size() + left <= min_fill;
      for (size_t i = 0; i < all.size(); ++i) {
        if (!placed[i]) place(i, to_a);
      }
      break;
    }
    // PickNext: the item whose enlargement differs most between groups.
    size_t pick = 0;
    double best_diff = -1;
    double grow_a = 0;
    double grow_b = 0;
    for (size_t i = 0; i < all.size(); ++i) {
      if (placed[i]) continue;
      double ga = EnlargementNeeded(box_a, BoxOf(all[i]));
      double gb = EnlargementNeeded(box_b, BoxOf(all[i]));
      if (std::fabs(ga - gb) > best_diff) {
        best_diff = std::fabs(ga - gb);
        pick = i;
        grow_a = ga;
        grow_b = gb;
      }
    }
    // Least enlargement wins, then the smaller box, then fewer items.
    bool to_a = items->size() <= other.size();
    if (box_a.Area() != box_b.Area()) to_a = box_a.Area() < box_b.Area();
    if (grow_a != grow_b) to_a = grow_a < grow_b;
    place(pick, to_a);
  }
  return other;
}

}  // namespace

void RTree::BulkLoad(std::vector<Entry> entries) {
  size_ = entries.size();
  root_ = std::make_unique<Node>();
  if (entries.empty()) return;
  size_t cap = static_cast<size_t>(max_entries_);
  std::vector<std::unique_ptr<Node>> level;
  StrPack(&entries, cap, [&](size_t begin, size_t end) {
    auto node = std::make_unique<Node>();
    node->entries.assign(entries.begin() + static_cast<long>(begin),
                         entries.begin() + static_cast<long>(end));
    node->Recompute();
    level.push_back(std::move(node));
  });
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> next;
    StrPack(&level, cap, [&](size_t begin, size_t end) {
      auto node = std::make_unique<Node>();
      node->leaf = false;
      for (size_t i = begin; i < end; ++i) {
        node->children.push_back(std::move(level[i]));
      }
      node->Recompute();
      next.push_back(std::move(node));
    });
    level = std::move(next);
  }
  root_ = std::move(level[0]);
}

std::unique_ptr<RTree::Node> RTree::Split(Node* node) const {
  auto sibling = std::make_unique<Node>();
  sibling->leaf = node->leaf;
  size_t min_fill = static_cast<size_t>(min_entries_);
  if (node->leaf) {
    sibling->entries = QuadraticSplit(&node->entries, min_fill);
  } else {
    sibling->children = QuadraticSplit(&node->children, min_fill);
  }
  node->Recompute();
  sibling->Recompute();
  return sibling;
}

void RTree::Insert(const Envelope& box, int64_t id) {
  ++size_;
  // ChooseLeaf: descend into the child needing least enlargement, the
  // smaller one on ties.
  std::vector<Node*> path = {root_.get()};
  while (!path.back()->leaf) {
    Node* best = nullptr;
    double best_growth = 0;
    for (const auto& c : path.back()->children) {
      double growth = EnlargementNeeded(c->box, box);
      if (!best || growth < best_growth ||
          (growth == best_growth && c->box.Area() < best->box.Area())) {
        best = c.get();
        best_growth = growth;
      }
    }
    path.push_back(best);
  }
  path.back()->entries.push_back({box, id});

  // AdjustTree: widen each box on the path bottom-up, splitting an
  // overfull node and handing the new sibling to its parent. A parent's
  // widened box stays exact: the split halves cover the old child plus
  // the new entry.
  std::unique_ptr<Node> sibling;
  for (size_t i = path.size(); i-- > 0;) {
    Node* node = path[i];
    if (sibling) node->children.push_back(std::move(sibling));
    node->box.Expand(box);
    if (node->Count() > static_cast<size_t>(max_entries_)) {
      sibling = Split(node);
    }
  }
  if (sibling) {
    // The root split: grow the tree by one level.
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(sibling));
    new_root->Recompute();
    root_ = std::move(new_root);
  }
}

void RTree::QueryNode(const Node* node, const Envelope& query,
                      std::vector<int64_t>* out) const {
  if (!node->box.Intersects(query)) return;
  if (node->leaf) {
    for (const Entry& e : node->entries) {
      if (e.box.Intersects(query)) out->push_back(e.id);
    }
    return;
  }
  for (const auto& c : node->children) QueryNode(c.get(), query, out);
}

std::vector<int64_t> RTree::Query(const Envelope& query) const {
  std::vector<int64_t> out;
  QueryNode(root_.get(), query, &out);
  return out;
}

std::vector<int64_t> RTree::QueryWithin(const Envelope& query,
                                        double distance) const {
  Envelope grown = query;
  grown.min_x -= distance;
  grown.min_y -= distance;
  grown.max_x += distance;
  grown.max_y += distance;
  return Query(grown);
}

int RTree::height() const {
  int h = 1;
  const Node* n = root_.get();
  while (!n->leaf) {
    ++h;
    n = n->children[0].get();
  }
  return h;
}

Status RTree::Validate() const {
  auto same = [](const Envelope& a, const Envelope& b) {
    return (a.IsEmpty() && b.IsEmpty()) ||
           (a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x &&
            a.max_y == b.max_y);
  };
  int leaf_depth = -1;
  size_t entries = 0;
  std::vector<std::pair<const Node*, int>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    std::string where = "node at depth " + std::to_string(depth);
    size_t count = node->Count();
    if (count > static_cast<size_t>(max_entries_)) {
      return Status::Internal(where + " holds " + std::to_string(count) +
                              " items, above the maximum");
    }
    size_t floor = depth == 0 ? (node->leaf ? 0 : 2)
                              : static_cast<size_t>(min_entries_);
    if (count < floor) {
      return Status::Internal(where + " holds " + std::to_string(count) +
                              " items, below the minimum fill");
    }
    Envelope tight = Envelope::Empty();
    if (node->leaf) {
      for (const Entry& e : node->entries) tight.Expand(e.box);
      entries += count;
      if (leaf_depth < 0) leaf_depth = depth;
      if (depth != leaf_depth) {
        return Status::Internal("leaves at depths " +
                                std::to_string(leaf_depth) + " and " +
                                std::to_string(depth));
      }
    } else {
      for (const auto& c : node->children) {
        tight.Expand(c->box);
        stack.push_back({c.get(), depth + 1});
      }
    }
    if (!same(node->box, tight)) {
      return Status::Internal(where + " has a box that is not tight");
    }
  }
  if (entries != size_) {
    return Status::Internal("leaves hold " + std::to_string(entries) +
                            " entries, size() says " + std::to_string(size_));
  }
  return Status::OK();
}

}  // namespace teleios::geo
