#ifndef TELEIOS_RELATIONAL_OPERATORS_H_
#define TELEIOS_RELATIONAL_OPERATORS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "storage/table.h"

namespace teleios::relational {

/// Rows of `table` for which `predicate` is truthy (candidate list).
///
/// Predicates that decompose into a conjunction of simple comparisons
/// (column vs constant, column vs column, column-difference vs constant,
/// string equality via dictionary code) are evaluated on the raw typed
/// vectors — the MonetDB-style vectorized selection path. Anything else
/// falls back to the row-wise expression interpreter.
Result<storage::SelectionVector> FilterIndices(const storage::Table& table,
                                               const ExprPtr& predicate);

/// The row-wise interpreter path only (no vectorization) — exposed for
/// the ablation benchmark; produces identical results to FilterIndices.
Result<storage::SelectionVector> FilterIndicesInterpreted(
    const storage::Table& table, const ExprPtr& predicate);

/// True if FilterIndices would take the vectorized path for `predicate`
/// against `table` (introspection for tests and EXPLAIN).
bool IsVectorizablePredicate(const storage::Table& table,
                             const ExprPtr& predicate);

/// Materialized filter.
Result<storage::Table> Filter(const storage::Table& table,
                              const ExprPtr& predicate);

/// One output column to compute in Project: expression + output name.
struct ProjectItem {
  ExprPtr expr;
  std::string alias;
};

/// Computes one output column per item over the rows listed in `sel`
/// (every row when null). A bare column reference is Taken typed and
/// keeps its column type; any other expression is evaluated per row, its
/// type inferred from the first non-null value (defaulting to DOUBLE).
Result<storage::Table> ProjectCompute(
    const storage::Table& table, const std::vector<ProjectItem>& items,
    const storage::SelectionVector* sel = nullptr);

enum class JoinType { kInner, kLeftOuter };

/// Hash join on equality of `left_keys[i]` = `right_keys[i]`. Column name
/// clashes in the output are disambiguated with a "r_" prefix.
Result<storage::Table> HashJoin(const storage::Table& left,
                                const storage::Table& right,
                                const std::vector<std::string>& left_keys,
                                const std::vector<std::string>& right_keys,
                                JoinType type = JoinType::kInner);

/// One aggregate to compute in GroupAggregate.
struct AggregateItem {
  std::string function;  // count/sum/avg/min/max (lower case)
  ExprPtr argument;      // a column reference; nullptr for count(*)
  std::string alias;
};

/// Hash group-by over `group_columns` computing `aggregates`, over the
/// rows listed in `sel` (every row when null). An empty group list
/// computes global aggregates (one output row).
///
/// Typed throughout: a group key is the raw value of each key column
/// (dictionary code, int64, double bits, bool) plus a null mask, and the
/// states update from the argument columns' raw vectors. Computed
/// arguments must be materialised as columns first. Groups come out in
/// first-seen order, and sums accumulate in row order within morsels
/// merged in morsel order, so results are identical at any thread count.
Result<storage::Table> GroupAggregate(
    const storage::Table& table, const std::vector<std::string>& group_columns,
    const std::vector<AggregateItem>& aggregates,
    const storage::SelectionVector* sel = nullptr);

struct SortKey {
  std::string column;
  bool descending = false;
};

/// Stable sort by the given keys (NULLs first).
Result<storage::Table> Sort(const storage::Table& table,
                            const std::vector<SortKey>& keys);

/// Rows [offset, offset+limit).
storage::Table Limit(const storage::Table& table, size_t limit,
                     size_t offset = 0);

/// Removes duplicate rows (first occurrence kept).
storage::Table Distinct(const storage::Table& table);

}  // namespace teleios::relational

#endif  // TELEIOS_RELATIONAL_OPERATORS_H_
