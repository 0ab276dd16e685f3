#ifndef TELEIOS_GEO_RTREE_H_
#define TELEIOS_GEO_RTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "geo/geometry.h"

namespace teleios::geo {

/// R-tree over (envelope, id) entries: the spatial index behind Strabon's
/// spatial selections and joins. Supports STR (sort-tile-recursive) bulk
/// loading and Guttman's incremental insertion: quadratic split, with
/// overfull inner nodes split upward (AdjustTree) so every node holds at
/// most `max_entries` items and every non-root node at least 40% of that
/// (two at the least).
class RTree {
 public:
  struct Entry {
    Envelope box;
    int64_t id;
  };

  explicit RTree(int max_entries = 16);
  ~RTree();

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;

  /// Builds a packed tree from all entries at once (STR); replaces any
  /// existing content.
  void BulkLoad(std::vector<Entry> entries);

  /// Inserts one entry.
  void Insert(const Envelope& box, int64_t id);

  /// Ids of entries whose boxes intersect `query`.
  std::vector<int64_t> Query(const Envelope& query) const;

  /// Ids of entries whose boxes intersect `query` grown by `distance` on
  /// every side: a superset of the entries within box distance
  /// `distance`, as candidates for exact geometry tests.
  std::vector<int64_t> QueryWithin(const Envelope& query,
                                   double distance) const;

  size_t size() const { return size_; }
  int height() const;

  /// Checks the structural invariants: fan-out within the minimum fill
  /// and `max_entries` below the root (an inner root holds at least two
  /// children), all leaves at one depth, every node's box the
  /// exact union of its items' boxes, and `size()` entries in the leaves.
  Status Validate() const;

 private:
  struct Node;
  std::unique_ptr<Node> root_;
  int max_entries_;
  int min_entries_;
  size_t size_ = 0;

  /// Moves part of an overfull node's items into a new sibling.
  std::unique_ptr<Node> Split(Node* node) const;
  void QueryNode(const Node* node, const Envelope& query,
                 std::vector<int64_t>* out) const;
};

}  // namespace teleios::geo

#endif  // TELEIOS_GEO_RTREE_H_
