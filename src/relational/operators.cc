#include "relational/operators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <numeric>
#include <type_traits>
#include <unordered_map>

#include "exec/parallel_for.h"
#include "governor/memory_budget.h"

namespace teleios::relational {

using storage::Column;
using storage::ColumnType;
using storage::Field;
using storage::Schema;
using storage::SelectionVector;
using storage::Table;

namespace {

/// One vectorizable conjunct. Shapes:
///   kColConst:  col CMP constant            (numeric or bool column)
///   kColCol:    colA CMP colB               (numeric columns)
///   kDiffConst: (colA - colB) CMP constant  (numeric columns)
///   kStrEq:     col = 'literal' / col <> 'literal' (dictionary code test)
///   kBoolCol:   bare bool column reference
///
/// Comparisons follow Value::Compare: BIGINT against BIGINT (a column, a
/// literal, or the BIGINT difference of two columns) is exact; any other
/// numeric pair compares as doubles.
struct VecPred {
  enum class Kind { kColConst, kColCol, kDiffConst, kStrEq, kBoolCol };
  Kind kind;
  BinaryOp cmp = BinaryOp::kEq;
  int col_a = -1;
  int col_b = -1;
  double constant = 0;
  bool int_constant = false;  // the literal is BIGINT
  int64_t iconstant = 0;
  int32_t code = storage::Dictionary::kInvalidCode;  // kStrEq
  bool negate = false;                               // kStrEq: <>
};

bool IsNumericColumn(const Table& table, int col) {
  ColumnType t = table.column(static_cast<size_t>(col)).type();
  return t == ColumnType::kInt64 || t == ColumnType::kFloat64 ||
         t == ColumnType::kBool;
}

bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

int ResolveColumn(const Table& table, const ExprPtr& e) {
  if (e->kind != ExprKind::kColumnRef) return -1;
  int idx = table.schema().FieldIndex(e->column);
  if (idx < 0) {
    size_t dot = e->column.find('.');
    if (dot != std::string::npos) {
      idx = table.schema().FieldIndex(e->column.substr(dot + 1));
    }
  }
  return idx;
}

/// Reads a numeric literal into `out`'s constant fields.
bool NumericLiteral(const ExprPtr& e, VecPred* out) {
  if (e->kind != ExprKind::kLiteral) return false;
  auto d = e->literal.ToDouble();
  if (!d.ok()) return false;
  out->constant = *d;
  out->int_constant = e->literal.type() == ValueType::kInt64;
  out->iconstant = out->int_constant ? e->literal.AsInt64() : 0;
  return true;
}

/// Tries to compile one conjunct; false if the shape is unsupported.
bool CompileConjunct(const Table& table, const ExprPtr& e, VecPred* out) {
  // Bare bool column.
  if (e->kind == ExprKind::kColumnRef) {
    int col = ResolveColumn(table, e);
    if (col < 0 ||
        table.column(static_cast<size_t>(col)).type() != ColumnType::kBool) {
      return false;
    }
    out->kind = VecPred::Kind::kBoolCol;
    out->col_a = col;
    return true;
  }
  if (e->kind != ExprKind::kBinary || !IsComparison(e->binary_op)) {
    return false;
  }
  const ExprPtr& lhs = e->children[0];
  const ExprPtr& rhs = e->children[1];
  // String equality: col = 'x' (either side).
  auto try_str = [&](const ExprPtr& col_e, const ExprPtr& lit_e) {
    if (e->binary_op != BinaryOp::kEq && e->binary_op != BinaryOp::kNe) {
      return false;
    }
    int col = ResolveColumn(table, col_e);
    if (col < 0 || table.column(static_cast<size_t>(col)).type() !=
                       ColumnType::kString) {
      return false;
    }
    if (lit_e->kind != ExprKind::kLiteral ||
        lit_e->literal.type() != ValueType::kString) {
      return false;
    }
    out->kind = VecPred::Kind::kStrEq;
    out->col_a = col;
    out->code = table.column(static_cast<size_t>(col))
                    .dict()
                    .Lookup(lit_e->literal.AsString());
    out->negate = e->binary_op == BinaryOp::kNe;
    return true;
  };
  if (try_str(lhs, rhs) || try_str(rhs, lhs)) return true;

  // col CMP const / const CMP col.
  int col = ResolveColumn(table, lhs);
  if (col >= 0 && IsNumericColumn(table, col) && NumericLiteral(rhs, out)) {
    out->kind = VecPred::Kind::kColConst;
    out->cmp = e->binary_op;
    out->col_a = col;
    return true;
  }
  col = ResolveColumn(table, rhs);
  if (col >= 0 && IsNumericColumn(table, col) && NumericLiteral(lhs, out)) {
    // Mirror the comparison: const CMP col == col CMP' const.
    BinaryOp mirrored = e->binary_op;
    switch (e->binary_op) {
      case BinaryOp::kLt:
        mirrored = BinaryOp::kGt;
        break;
      case BinaryOp::kLe:
        mirrored = BinaryOp::kGe;
        break;
      case BinaryOp::kGt:
        mirrored = BinaryOp::kLt;
        break;
      case BinaryOp::kGe:
        mirrored = BinaryOp::kLe;
        break;
      default:
        break;
    }
    out->kind = VecPred::Kind::kColConst;
    out->cmp = mirrored;
    out->col_a = col;
    return true;
  }
  // colA CMP colB.
  int col_a = ResolveColumn(table, lhs);
  int col_b = ResolveColumn(table, rhs);
  if (col_a >= 0 && col_b >= 0 && IsNumericColumn(table, col_a) &&
      IsNumericColumn(table, col_b)) {
    out->kind = VecPred::Kind::kColCol;
    out->cmp = e->binary_op;
    out->col_a = col_a;
    out->col_b = col_b;
    return true;
  }
  // (colA - colB) CMP const.
  if (lhs->kind == ExprKind::kBinary && lhs->binary_op == BinaryOp::kSub &&
      NumericLiteral(rhs, out)) {
    int a = ResolveColumn(table, lhs->children[0]);
    int b = ResolveColumn(table, lhs->children[1]);
    if (a >= 0 && b >= 0 && IsNumericColumn(table, a) &&
        IsNumericColumn(table, b)) {
      out->kind = VecPred::Kind::kDiffConst;
      out->cmp = e->binary_op;
      out->col_a = a;
      out->col_b = b;
      return true;
    }
  }
  return false;
}

void SplitAnd(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    SplitAnd(e->children[0], out);
    SplitAnd(e->children[1], out);
    return;
  }
  out->push_back(e);
}

bool CompilePredicate(const Table& table, const ExprPtr& predicate,
                      std::vector<VecPred>* preds) {
  std::vector<ExprPtr> conjuncts;
  SplitAnd(predicate, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    VecPred pred;
    if (!CompileConjunct(table, c, &pred)) return false;
    preds->push_back(pred);
  }
  return true;
}

/// Keeps the rows of `sel` for which `keep(row)` holds, in place and
/// branch-free (Ross, TODS 2004): every row id is written, and the output
/// cursor advances by the 0/1 outcome.
template <typename Keep>
void SelectWhere(SelectionVector* sel, Keep keep) {
  uint32_t* rows = sel->data();
  size_t kept = 0;
  for (size_t i = 0, n = sel->size(); i < n; ++i) {
    uint32_t row = rows[i];
    rows[kept] = row;
    kept += static_cast<size_t>(keep(row));
  }
  sel->resize(kept);
}

/// Calls `fn` with the functor for comparison `op`, so that every
/// comparison gets its own loop.
template <typename Fn>
void WithComparison(BinaryOp op, Fn fn) {
  switch (op) {
    case BinaryOp::kEq:
      return fn(std::equal_to<>());
    case BinaryOp::kNe:
      return fn(std::not_equal_to<>());
    case BinaryOp::kLt:
      return fn(std::less<>());
    case BinaryOp::kLe:
      return fn(std::less_equal<>());
    case BinaryOp::kGt:
      return fn(std::greater<>());
    default:
      return fn(std::greater_equal<>());
  }
}

/// Calls `fn` with a row -> value reader over a numeric column's raw
/// vector: int64 as stored, double as stored, bool as 0.0/1.0.
template <typename Fn>
void WithNumeric(const Column& col, Fn fn) {
  switch (col.type()) {
    case ColumnType::kInt64: {
      const int64_t* data = col.ints().data();
      return fn([data](uint32_t r) { return data[r]; });
    }
    case ColumnType::kFloat64: {
      const double* data = col.doubles().data();
      return fn([data](uint32_t r) { return data[r]; });
    }
    default: {
      const uint8_t* data = col.bools().data();
      return fn([data](uint32_t r) { return static_cast<double>(data[r]); });
    }
  }
}

template <typename Reader>
constexpr bool kReadsInt =
    std::is_same_v<std::invoke_result_t<Reader, uint32_t>, int64_t>;

/// Applies one compiled conjunct on the raw vectors.
void ApplyVecPred(const Table& table, const VecPred& pred,
                  SelectionVector* sel) {
  const Column& a = table.column(static_cast<size_t>(pred.col_a));
  const uint8_t* va = a.validity().data();
  switch (pred.kind) {
    case VecPred::Kind::kColConst:
      WithNumeric(a, [&](auto get) {
        WithComparison(pred.cmp, [&](auto cmp) {
          if constexpr (kReadsInt<decltype(get)>) {
            if (pred.int_constant) {
              int64_t c = pred.iconstant;
              return SelectWhere(
                  sel, [&](uint32_t r) { return va[r] & cmp(get(r), c); });
            }
          }
          double c = pred.constant;
          SelectWhere(sel, [&](uint32_t r) {
            return va[r] & cmp(static_cast<double>(get(r)), c);
          });
        });
      });
      break;
    case VecPred::Kind::kColCol:
    case VecPred::Kind::kDiffConst: {
      const Column& b = table.column(static_cast<size_t>(pred.col_b));
      const uint8_t* vb = b.validity().data();
      bool diff = pred.kind == VecPred::Kind::kDiffConst;
      WithNumeric(a, [&](auto get_a) {
        WithNumeric(b, [&](auto get_b) {
          WithComparison(pred.cmp, [&](auto cmp) {
            if constexpr (kReadsInt<decltype(get_a)> &&
                          kReadsInt<decltype(get_b)>) {
              // BIGINT - BIGINT stays BIGINT (wrapping, like the
              // interpreter's int64 arithmetic).
              auto sub = [&](uint32_t r) {
                return static_cast<int64_t>(
                    static_cast<uint64_t>(get_a(r)) -
                    static_cast<uint64_t>(get_b(r)));
              };
              if (!diff) {
                return SelectWhere(sel, [&](uint32_t r) {
                  return va[r] & vb[r] & cmp(get_a(r), get_b(r));
                });
              }
              if (pred.int_constant) {
                int64_t c = pred.iconstant;
                return SelectWhere(sel, [&](uint32_t r) {
                  return va[r] & vb[r] & cmp(sub(r), c);
                });
              }
              double c = pred.constant;
              return SelectWhere(sel, [&](uint32_t r) {
                return va[r] & vb[r] & cmp(static_cast<double>(sub(r)), c);
              });
            }
            double c = pred.constant;
            SelectWhere(sel, [&](uint32_t r) {
              double x = static_cast<double>(get_a(r));
              double y = static_cast<double>(get_b(r));
              return va[r] & vb[r] & (diff ? cmp(x - y, c) : cmp(x, y));
            });
          });
        });
      });
      break;
    }
    case VecPred::Kind::kStrEq: {
      const int32_t* codes = a.codes().data();
      SelectWhere(sel, [&](uint32_t r) {
        return va[r] & ((codes[r] == pred.code) != pred.negate);
      });
      break;
    }
    case VecPred::Kind::kBoolCol: {
      const uint8_t* bools = a.bools().data();
      SelectWhere(sel, [&](uint32_t r) { return va[r] & bools[r]; });
      break;
    }
  }
}

}  // namespace

bool IsVectorizablePredicate(const Table& table, const ExprPtr& predicate) {
  std::vector<VecPred> preds;
  return CompilePredicate(table, predicate, &preds);
}

namespace {

/// Concatenates per-morsel selections in morsel-index order — exactly
/// the row order a serial scan would produce.
SelectionVector MergeSelections(std::vector<SelectionVector>& partials) {
  size_t total = 0;
  for (const SelectionVector& p : partials) total += p.size();
  SelectionVector sel;
  sel.reserve(total);
  for (SelectionVector& p : partials) {
    sel.insert(sel.end(), p.begin(), p.end());
  }
  return sel;
}

}  // namespace

Result<SelectionVector> FilterIndicesInterpreted(const Table& table,
                                                 const ExprPtr& predicate) {
  TELEIOS_ASSIGN_OR_RETURN(BoundExpr bound,
                           BoundExpr::Bind(predicate, table));
  // Worst case the partials plus their merged copy hold every row index.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(table.num_rows() * 2 * sizeof(uint32_t),
                              "filter selection vectors"));
  exec::ParallelOptions opts;
  opts.label = "exec.filter";
  exec::MorselPlan plan = exec::PlanMorsels(table.num_rows(), opts.grain);
  std::vector<SelectionVector> partials(plan.count);
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      table.num_rows(), opts,
      [&](size_t morsel, size_t begin, size_t end) -> Status {
        SelectionVector& sel = partials[morsel];
        for (size_t r = begin; r < end; ++r) {
          TELEIOS_ASSIGN_OR_RETURN(Value v, bound.Eval(table, r));
          if (v.Truthy()) sel.push_back(static_cast<uint32_t>(r));
        }
        return Status::OK();
      }));
  return MergeSelections(partials);
}

Result<SelectionVector> FilterIndices(const Table& table,
                                      const ExprPtr& predicate) {
  std::vector<VecPred> preds;
  if (CompilePredicate(table, predicate, &preds)) {
    TELEIOS_ASSIGN_OR_RETURN(
        governor::BudgetCharge charge,
        governor::ChargeCurrent(table.num_rows() * 2 * sizeof(uint32_t),
                                "filter selection vectors"));
    exec::ParallelOptions opts;
    opts.label = "exec.filter";
    exec::MorselPlan plan = exec::PlanMorsels(table.num_rows(), opts.grain);
    std::vector<SelectionVector> partials(plan.count);
    TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
        table.num_rows(), opts,
        [&](size_t morsel, size_t begin, size_t end) -> Status {
          SelectionVector& sel = partials[morsel];
          sel.resize(end - begin);
          for (size_t i = begin; i < end; ++i) {
            sel[i - begin] = static_cast<uint32_t>(i);
          }
          for (const VecPred& pred : preds) {
            ApplyVecPred(table, pred, &sel);
            if (sel.empty()) break;
          }
          return Status::OK();
        }));
    return MergeSelections(partials);
  }
  return FilterIndicesInterpreted(table, predicate);
}

Result<Table> Filter(const Table& table, const ExprPtr& predicate) {
  TELEIOS_ASSIGN_OR_RETURN(SelectionVector sel,
                           FilterIndices(table, predicate));
  return table.Take(sel);
}

namespace {

ColumnType InferColumnType(const std::vector<Value>& values) {
  for (const Value& v : values) {
    if (v.is_null()) continue;
    auto ct = storage::ColumnTypeForValue(v.type());
    if (ct.ok()) return *ct;
  }
  return ColumnType::kFloat64;
}

/// Hash key for joins and DISTINCT: the row's key values rendered with
/// type tags so 1 (int) and "1" never collide.
std::string MakeKey(const Table& table, size_t row,
                    const std::vector<int>& cols) {
  std::string key;
  for (int c : cols) {
    Value v = table.Get(row, c);
    key += static_cast<char>('0' + static_cast<int>(v.type()));
    key += v.ToString();
    key += '\x1f';
  }
  return key;
}

}  // namespace

Result<Table> ProjectCompute(const Table& table,
                             const std::vector<ProjectItem>& items,
                             const SelectionVector* sel) {
  // Without a candidate list every row is taken: the result still gets
  // its own dictionaries, never the input's.
  SelectionVector all;
  if (sel == nullptr) {
    all.resize(table.num_rows());
    std::iota(all.begin(), all.end(), uint32_t{0});
    sel = &all;
  }
  size_t n = sel->size();
  std::vector<int> source(items.size(), -1);  // column index of a bare ref
  std::vector<BoundExpr> bound;               // the other items, in order
  for (size_t i = 0; i < items.size(); ++i) {
    source[i] = ResolveColumn(table, items[i].expr);
    if (source[i] >= 0) continue;
    TELEIOS_ASSIGN_OR_RETURN(BoundExpr b,
                             BoundExpr::Bind(items[i].expr, table));
    bound.push_back(std::move(b));
  }
  std::vector<std::vector<Value>> results(bound.size());
  for (auto& column : results) column.resize(n);
  if (!bound.empty()) {
    exec::ParallelOptions opts;
    opts.label = "exec.project";
    TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
        n, opts, [&](size_t, size_t begin, size_t end) -> Status {
          for (size_t i = begin; i < end; ++i) {
            for (size_t k = 0; k < bound.size(); ++k) {
              TELEIOS_ASSIGN_OR_RETURN(results[k][i],
                                       bound[k].Eval(table, (*sel)[i]));
            }
          }
          return Status::OK();
        }));
  }
  std::vector<Field> fields;
  for (size_t i = 0, k = 0; i < items.size(); ++i) {
    ColumnType type = source[i] >= 0
                          ? table.column(static_cast<size_t>(source[i])).type()
                          : InferColumnType(results[k++]);
    fields.push_back({items[i].alias, type});
  }
  Table out{Schema(std::move(fields))};
  for (size_t i = 0, k = 0; i < items.size(); ++i) {
    Column& column = out.column(i);
    if (source[i] >= 0) {
      column = table.column(static_cast<size_t>(source[i])).Take(*sel);
      continue;
    }
    column.Reserve(n);
    for (const Value& v : results[k++]) {
      TELEIOS_RETURN_IF_ERROR(column.Append(v));
    }
  }
  return out;
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& left_keys,
                       const std::vector<std::string>& right_keys,
                       JoinType type) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  std::vector<int> lcols, rcols;
  for (const std::string& k : left_keys) {
    int i = left.schema().FieldIndex(k);
    if (i < 0) return Status::NotFound("join key '" + k + "' not in left");
    lcols.push_back(i);
  }
  for (const std::string& k : right_keys) {
    int i = right.schema().FieldIndex(k);
    if (i < 0) return Status::NotFound("join key '" + k + "' not in right");
    rcols.push_back(i);
  }

  // Build on the right side.
  std::unordered_map<std::string, std::vector<uint32_t>> build;
  build.reserve(right.num_rows());
  for (size_t r = 0; r < right.num_rows(); ++r) {
    bool has_null = false;
    for (int c : rcols) {
      if (right.column(c).IsNull(r)) {
        has_null = true;
        break;
      }
    }
    if (has_null) continue;  // SQL: NULL keys never match
    build[MakeKey(right, r, rcols)].push_back(static_cast<uint32_t>(r));
  }

  // Output schema: all left columns, then right columns with clash rename.
  std::vector<Field> fields;
  for (const Field& f : left.schema().fields()) fields.push_back(f);
  for (const Field& f : right.schema().fields()) {
    std::string name = f.name;
    bool clash = left.schema().FieldIndex(name) >= 0;
    fields.push_back({clash ? "r_" + name : name, f.type});
  }
  Table out{Schema(std::move(fields))};

  size_t nl = left.num_columns();
  size_t nr = right.num_columns();
  for (size_t r = 0; r < left.num_rows(); ++r) {
    bool has_null = false;
    for (int c : lcols) {
      if (left.column(c).IsNull(r)) {
        has_null = true;
        break;
      }
    }
    const std::vector<uint32_t>* matches = nullptr;
    if (!has_null) {
      auto it = build.find(MakeKey(left, r, lcols));
      if (it != build.end()) matches = &it->second;
    }
    if (matches) {
      for (uint32_t rr : *matches) {
        for (size_t c = 0; c < nl; ++c) {
          TELEIOS_RETURN_IF_ERROR(out.column(c).Append(left.Get(r, c)));
        }
        for (size_t c = 0; c < nr; ++c) {
          TELEIOS_RETURN_IF_ERROR(
              out.column(nl + c).Append(right.Get(rr, c)));
        }
      }
    } else if (type == JoinType::kLeftOuter) {
      for (size_t c = 0; c < nl; ++c) {
        TELEIOS_RETURN_IF_ERROR(out.column(c).Append(left.Get(r, c)));
      }
      for (size_t c = 0; c < nr; ++c) out.column(nl + c).AppendNull();
    }
  }
  return out;
}

namespace {

enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

Result<AggFn> ParseAggFn(const std::string& fn) {
  if (fn == "count") return AggFn::kCount;
  if (fn == "sum") return AggFn::kSum;
  if (fn == "avg") return AggFn::kAvg;
  if (fn == "min") return AggFn::kMin;
  if (fn == "max") return AggFn::kMax;
  return Status::NotFound("unknown aggregate '" + fn + "'");
}

/// One aggregate bound to its argument column; nullptr is count(*), for
/// which every row counts as the BIGINT 1.
struct AggInput {
  AggFn fn;
  const Column* column = nullptr;
};

/// Running state of one aggregate in one group, over raw typed values.
/// The extremes live in the field of the argument's type: BIGINT, BOOL
/// (0/1) and dictionary codes in imin/imax, DOUBLE in dmin/dmax.
struct AggState {
  int64_t count = 0;  // non-null inputs
  double sum = 0.0;
  int64_t isum = 0;  // wrapping BIGINT sum
  int64_t imin = 0, imax = 0;
  double dmin = 0.0, dmax = 0.0;
};

int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

bool WantsSum(AggFn fn) { return fn == AggFn::kSum || fn == AggFn::kAvg; }
bool WantsExtremes(AggFn fn) { return fn == AggFn::kMin || fn == AggFn::kMax; }

/// Folds one non-null input into `s`, keeping only what `fn` reads: the
/// count always, the sums for sum/avg, the extremes for min/max.
void AddInt(AggState& s, int64_t v, AggFn fn) {
  bool first = s.count++ == 0;
  if (WantsSum(fn)) {
    s.sum += static_cast<double>(v);
    s.isum = WrappingAdd(s.isum, v);
  } else if (WantsExtremes(fn)) {
    if (first || v < s.imin) s.imin = v;
    if (first || v > s.imax) s.imax = v;
  }
}

/// `a` orders before `b` in Value::Compare's total order, where NaN
/// comes after every number: MIN skips NaN, MAX is NaN if any input is.
bool DoubleBefore(double a, double b) {
  return a < b || (std::isnan(b) && !std::isnan(a));
}

void AddDouble(AggState& s, double v, AggFn fn) {
  bool first = s.count++ == 0;
  if (WantsSum(fn)) {
    s.sum += v;
  } else if (WantsExtremes(fn)) {
    if (first || DoubleBefore(v, s.dmin)) s.dmin = v;
    if (first || DoubleBefore(s.dmax, v)) s.dmax = v;
  }
}

/// Strings add nothing to a sum; their extremes compare the dictionary
/// strings.
void AddString(AggState& s, int32_t code, const storage::Dictionary& dict,
               AggFn fn) {
  bool first = s.count++ == 0;
  if (!WantsExtremes(fn)) return;
  if (first || (code != s.imin && dict.At(code) < dict.At(s.imin))) {
    s.imin = code;
  }
  if (first || (code != s.imax && dict.At(code) > dict.At(s.imax))) {
    s.imax = code;
  }
}

/// Folds a later morsel's state of the same group into `s`. Partials are
/// merged in morsel-index order, so the floating-point accumulation
/// order is fixed by the morsel plan — identical at any thread count.
void MergeState(AggState& s, const AggState& later, const AggInput& in) {
  if (later.count == 0) return;
  bool first = s.count == 0;
  s.count += later.count;
  s.sum += later.sum;
  s.isum = WrappingAdd(s.isum, later.isum);
  if (!WantsExtremes(in.fn)) return;
  ColumnType type =
      in.column != nullptr ? in.column->type() : ColumnType::kInt64;
  if (type == ColumnType::kFloat64) {
    if (first || DoubleBefore(later.dmin, s.dmin)) s.dmin = later.dmin;
    if (first || DoubleBefore(s.dmax, later.dmax)) s.dmax = later.dmax;
  } else if (type == ColumnType::kString) {
    const storage::Dictionary& dict = in.column->dict();
    if (first || dict.At(later.imin) < dict.At(s.imin)) s.imin = later.imin;
    if (first || dict.At(later.imax) > dict.At(s.imax)) s.imax = later.imax;
  } else {
    if (first || later.imin < s.imin) s.imin = later.imin;
    if (first || later.imax > s.imax) s.imax = later.imax;
  }
}

Value Extreme(const AggState& s, const Column* column, bool min) {
  ColumnType type = column != nullptr ? column->type() : ColumnType::kInt64;
  int64_t i = min ? s.imin : s.imax;
  switch (type) {
    case ColumnType::kFloat64:
      return Value(min ? s.dmin : s.dmax);
    case ColumnType::kBool:
      return Value(i != 0);
    case ColumnType::kString:
      return Value(column->dict().At(static_cast<int32_t>(i)));
    case ColumnType::kInt64:
      break;
  }
  return Value(i);
}

/// The aggregate's value for a group. The sum stays BIGINT over BIGINT
/// input (and over strings, which add nothing); an empty group is NULL
/// except for count.
Value Finish(const AggState& s, const AggInput& in) {
  if (in.fn == AggFn::kCount) return Value(s.count);
  if (s.count == 0) return Value();
  ColumnType type =
      in.column != nullptr ? in.column->type() : ColumnType::kInt64;
  switch (in.fn) {
    case AggFn::kSum:
      return type == ColumnType::kInt64 || type == ColumnType::kString
                 ? Value(s.isum)
                 : Value(s.sum);
    case AggFn::kAvg:
      return Value(s.sum / static_cast<double>(s.count));
    case AggFn::kMin:
      return Extreme(s, in.column, /*min=*/true);
    default:
      return Extreme(s, in.column, /*min=*/false);
  }
}

/// Open-addressing hash table from fixed-width keys (64-bit words) to
/// dense group ids, assigned in first-seen order. A slot packs the key's
/// 32-bit hash with its group id, so a probe reads a key only on a hash
/// match and growing never rereads keys.
class GroupTable {
 public:
  explicit GroupTable(size_t width) : width_(width), slots_(16, 0) {}

  size_t size() const { return size_; }
  const uint64_t* key(size_t group) const {
    return keys_.data() + group * width_;
  }

  /// Sizes the table for `groups` ids without growing on the way.
  void Reserve(size_t groups) {
    while (slots_.size() < 2 * groups) Grow();
    keys_.reserve(groups * width_);
  }

  /// Id of `key`, added as the next id when unseen.
  uint32_t FindOrInsert(const uint64_t* key) {
    uint32_t h = Hash(key);
    size_t mask = slots_.size() - 1;
    size_t i = h & mask;
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      uint32_t g = static_cast<uint32_t>(slots_[i]) - 1;
      if (slots_[i] >> 32 == h &&
          std::equal(key, key + width_, this->key(g))) {
        return g;
      }
    }
    uint32_t g = static_cast<uint32_t>(size_++);
    keys_.insert(keys_.end(), key, key + width_);
    slots_[i] = (uint64_t{h} << 32) | (g + 1);
    if (size_ * 2 > slots_.size()) Grow();
    return g;
  }

 private:
  uint32_t Hash(const uint64_t* key) const {
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (size_t k = 0; k < width_; ++k) {
      h = (h ^ key[k]) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 29;
    }
    return static_cast<uint32_t>(h ^ (h >> 32));
  }

  void Grow() {
    std::vector<uint64_t> slots(slots_.size() * 2, 0);
    size_t mask = slots.size() - 1;
    for (uint64_t slot : slots_) {
      if (slot == 0) continue;
      size_t i = (slot >> 32) & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = slot;
    }
    slots_ = std::move(slots);
  }

  size_t width_;
  size_t size_ = 0;
  std::vector<uint64_t> keys_;   // group g's key at [g*width, (g+1)*width)
  std::vector<uint64_t> slots_;  // hash << 32 | (group id + 1); 0 = empty
};

/// Writes key column `k`'s raw value for each row — the dictionary code,
/// the int64, the double's bits or the bool — into word `k` of the row's
/// key, and its null bit into the mask words after the value words. The
/// words must start zeroed.
void FillKeyWords(const Column& col, size_t k, size_t num_keys, size_t width,
                  const uint32_t* rows, size_t count, uint64_t* words) {
  const uint8_t* valid = col.validity().data();
  size_t mask_word = num_keys + k / 64;
  uint64_t null_bit = uint64_t{1} << (k % 64);
  auto fill = [&](auto get) {
    for (size_t i = 0; i < count; ++i) {
      uint32_t r = rows[i];
      uint64_t* key = words + i * width;
      key[k] = valid[r] ? get(r) : 0;
      key[mask_word] |= valid[r] ? 0 : null_bit;
    }
  };
  switch (col.type()) {
    case ColumnType::kInt64: {
      const int64_t* data = col.ints().data();
      return fill(
          [data](uint32_t r) { return static_cast<uint64_t>(data[r]); });
    }
    case ColumnType::kFloat64: {
      const double* data = col.doubles().data();
      return fill(
          [data](uint32_t r) { return std::bit_cast<uint64_t>(data[r]); });
    }
    case ColumnType::kBool: {
      const uint8_t* data = col.bools().data();
      return fill([data](uint32_t r) { return uint64_t{data[r]}; });
    }
    case ColumnType::kString: {
      const int32_t* data = col.codes().data();
      return fill([data](uint32_t r) {
        return uint64_t{static_cast<uint32_t>(data[r])};
      });
    }
  }
}

/// Folds rows[0, count) into their groups' states for one aggregate,
/// reading the argument's raw vector. `groups` null means one group, whose
/// state then accumulates in a local.
void Accumulate(const AggInput& in, const uint32_t* rows, size_t count,
                const uint32_t* groups, size_t a, size_t num_aggs,
                AggState* states) {
  auto each = [&](auto add) {
    if (groups == nullptr) {
      AggState local = states[a];
      for (size_t i = 0; i < count; ++i) add(local, rows[i]);
      states[a] = local;
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      add(states[groups[i] * num_aggs + a], rows[i]);
    }
  };
  AggFn fn = in.fn;
  if (in.column == nullptr) {
    if (fn == AggFn::kCount && groups == nullptr) {
      states[a].count += static_cast<int64_t>(count);
      return;
    }
    return each([fn](AggState& s, uint32_t) { AddInt(s, 1, fn); });
  }
  const Column& col = *in.column;
  const uint8_t* valid = col.validity().data();
  switch (col.type()) {
    case ColumnType::kInt64: {
      const int64_t* data = col.ints().data();
      return each([=](AggState& s, uint32_t r) {
        if (valid[r]) AddInt(s, data[r], fn);
      });
    }
    case ColumnType::kBool: {
      const uint8_t* data = col.bools().data();
      return each([=](AggState& s, uint32_t r) {
        if (valid[r]) AddInt(s, data[r], fn);
      });
    }
    case ColumnType::kFloat64: {
      const double* data = col.doubles().data();
      return each([=](AggState& s, uint32_t r) {
        if (valid[r]) AddDouble(s, data[r], fn);
      });
    }
    case ColumnType::kString: {
      const int32_t* data = col.codes().data();
      return each([&, valid, data](AggState& s, uint32_t r) {
        if (valid[r]) AddString(s, data[r], col.dict(), fn);
      });
    }
  }
}

}  // namespace

Result<Table> GroupAggregate(const Table& table,
                             const std::vector<std::string>& group_columns,
                             const std::vector<AggregateItem>& aggregates,
                             const SelectionVector* sel) {
  std::vector<int> gcols;
  for (const std::string& g : group_columns) {
    int i = table.schema().FieldIndex(g);
    if (i < 0) return Status::NotFound("group column '" + g + "' not found");
    gcols.push_back(i);
  }
  std::vector<AggInput> inputs;
  for (const AggregateItem& a : aggregates) {
    TELEIOS_ASSIGN_OR_RETURN(AggFn fn, ParseAggFn(a.function));
    AggInput in{fn, nullptr};
    if (a.argument) {
      int col = ResolveColumn(table, a.argument);
      if (col < 0) {
        return a.argument->kind == ExprKind::kColumnRef
                   ? Status::NotFound("unknown column '" +
                                      a.argument->column + "'")
                   : Status::InvalidArgument(
                         "aggregate argument must be a column: " +
                         a.argument->ToString());
      }
      in.column = &table.column(static_cast<size_t>(col));
    }
    inputs.push_back(in);
  }
  size_t n = sel != nullptr ? sel->size() : table.num_rows();
  size_t num_keys = gcols.size();
  size_t width = num_keys == 0 ? 0 : num_keys + (num_keys + 63) / 64;
  size_t num_aggs = inputs.size();
  size_t direct_slots = 0;
  if (num_keys == 1) {
    const Column& key = table.column(static_cast<size_t>(gcols[0]));
    if (key.type() == ColumnType::kBool) direct_slots = 3;
    if (key.type() == ColumnType::kString && key.dict().size() <= 4096) {
      direct_slots = static_cast<size_t>(key.dict().size()) + 1;
    }
  }

  // Reserve for the worst case — every row its own group (key words,
  // hash slot, group id, first row, one state per aggregate) — so an
  // aggregation too big for the budget is refused up front instead of
  // dying mid-build.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(
          n * (width * sizeof(uint64_t) + 24 + num_aggs * sizeof(AggState)),
          "group-aggregate hash tables"));

  struct Partial {
    explicit Partial(size_t width) : groups(width) {}
    GroupTable groups;
    SelectionVector first_rows;    // base row where each group first shows
    std::vector<AggState> states;  // group-major, num_aggs per group
  };

  // Morsel-parallel pre-aggregation: each morsel builds its own hash
  // table, then the partials fold together in morsel-index order, which
  // reproduces the serial first-seen group order and accumulation order.
  exec::ParallelOptions opts;
  opts.label = "exec.aggregate";
  exec::MorselPlan plan = exec::PlanMorsels(n, opts.grain);
  std::vector<Partial> partials(plan.count, Partial(width));
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      n, opts, [&](size_t morsel, size_t begin, size_t end) -> Status {
        Partial& part = partials[morsel];
        size_t count = end - begin;
        SelectionVector dense;
        if (sel == nullptr) {
          dense.resize(count);
          std::iota(dense.begin(), dense.end(), static_cast<uint32_t>(begin));
        }
        const uint32_t* rows =
            sel != nullptr ? sel->data() + begin : dense.data();
        std::vector<uint32_t> group_of;
        if (num_keys == 0) {
          part.groups.FindOrInsert(nullptr);
          part.first_rows.push_back(rows[0]);
        } else {
          group_of.resize(count);
          std::vector<uint64_t> words(count * width, 0);
          for (size_t k = 0; k < num_keys; ++k) {
            FillKeyWords(table.column(static_cast<size_t>(gcols[k])), k,
                         num_keys, width, rows, count, words.data());
          }
          // A lone dictionary-code or bool key indexes a direct cache of
          // group ids (slot 0 = NULL) in front of the hash table.
          std::vector<int32_t> direct(direct_slots, -1);
          for (size_t i = 0; i < count; ++i) {
            const uint64_t* key = &words[i * width];
            int32_t* slot = direct.empty()
                                ? nullptr
                                : &direct[key[1] != 0 ? 0 : key[0] + 1];
            if (slot != nullptr && *slot >= 0) {
              group_of[i] = static_cast<uint32_t>(*slot);
              continue;
            }
            uint32_t g = part.groups.FindOrInsert(key);
            if (g == part.first_rows.size()) part.first_rows.push_back(rows[i]);
            if (slot != nullptr) *slot = static_cast<int32_t>(g);
            group_of[i] = g;
          }
        }
        part.states.resize(part.groups.size() * num_aggs);
        for (size_t a = 0; a < num_aggs; ++a) {
          Accumulate(inputs[a], rows, count,
                     num_keys == 0 ? nullptr : group_of.data(), a, num_aggs,
                     part.states.data());
        }
        return Status::OK();
      }));

  GroupTable groups(width);
  size_t most_groups = 0;
  for (const Partial& part : partials) most_groups += part.groups.size();
  groups.Reserve(most_groups);
  SelectionVector first_rows;
  std::vector<AggState> states;
  for (const Partial& part : partials) {
    for (size_t g = 0; g < part.groups.size(); ++g) {
      const AggState* incoming = part.states.data() + g * num_aggs;
      uint32_t id = groups.FindOrInsert(part.groups.key(g));
      if (id == first_rows.size()) {
        first_rows.push_back(part.first_rows[g]);
        states.insert(states.end(), incoming, incoming + num_aggs);
        continue;
      }
      for (size_t a = 0; a < num_aggs; ++a) {
        MergeState(states[id * num_aggs + a], incoming[a], inputs[a]);
      }
    }
  }
  size_t num_groups = first_rows.size();
  // Global aggregate over an empty input still yields one row.
  if (num_keys == 0 && num_groups == 0) {
    num_groups = 1;
    states.resize(num_aggs);
  }

  // Compute results first to infer output types.
  std::vector<std::vector<Value>> agg_values(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    agg_values[a].reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      agg_values[a].push_back(Finish(states[g * num_aggs + a], inputs[a]));
    }
  }

  std::vector<Field> fields;
  for (int c : gcols) fields.push_back(table.schema().field(c));
  for (size_t a = 0; a < num_aggs; ++a) {
    ColumnType t = inputs[a].fn == AggFn::kCount
                       ? ColumnType::kInt64
                       : InferColumnType(agg_values[a]);
    fields.push_back({aggregates[a].alias, t});
  }
  Table out{Schema(std::move(fields))};
  for (size_t k = 0; k < num_keys; ++k) {
    out.column(k) =
        table.column(static_cast<size_t>(gcols[k])).Take(first_rows);
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    Column& column = out.column(num_keys + a);
    for (const Value& v : agg_values[a]) {
      TELEIOS_RETURN_IF_ERROR(column.Append(v));
    }
  }
  return out;
}

Result<Table> Sort(const Table& table, const std::vector<SortKey>& keys) {
  std::vector<int> cols;
  for (const SortKey& k : keys) {
    int i = table.schema().FieldIndex(k.column);
    if (i < 0) return Status::NotFound("sort column '" + k.column + "' not found");
    cols.push_back(i);
  }
  // The permutation vector plus stable_sort's temporary buffer.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(table.num_rows() * 2 * sizeof(uint32_t),
                              "sort selection"));
  SelectionVector sel(table.num_rows());
  for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
  std::stable_sort(sel.begin(), sel.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int c = table.Get(a, cols[k]).Compare(table.Get(b, cols[k]));
      if (c != 0) return keys[k].descending ? c > 0 : c < 0;
    }
    return false;
  });
  return table.Take(sel);
}

Table Limit(const Table& table, size_t limit, size_t offset) {
  SelectionVector sel;
  for (size_t r = offset; r < table.num_rows() && sel.size() < limit; ++r) {
    sel.push_back(static_cast<uint32_t>(r));
  }
  return table.Take(sel);
}

Table Distinct(const Table& table) {
  std::vector<int> cols(table.num_columns());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = static_cast<int>(i);
  std::unordered_map<std::string, bool> seen;
  SelectionVector sel;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string key = MakeKey(table, r, cols);
    if (seen.emplace(std::move(key), true).second) {
      sel.push_back(static_cast<uint32_t>(r));
    }
  }
  return table.Take(sel);
}

}  // namespace teleios::relational
