#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"

#include "relational/evaluator.h"
#include "relational/expression.h"
#include "relational/operators.h"

namespace teleios::relational {
namespace {

using storage::ColumnType;
using storage::Schema;
using storage::Table;

Table Sensors() {
  Table t{Schema({{"id", ColumnType::kInt64},
                  {"band", ColumnType::kString},
                  {"temp", ColumnType::kFloat64}})};
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value("IR039"), Value(320.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value("IR108"), Value(295.5)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{3}), Value("IR039"), Value(305.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{4}), Value("VIS006"), Value()}).ok());
  return t;
}

TEST(ExpressionTest, BuildAndPrint) {
  ExprPtr e = Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                           Expr::Literal(Value(300.0)));
  EXPECT_EQ(e->ToString(), "(temp > 300)");
  EXPECT_FALSE(ContainsAggregate(e));
  std::vector<std::string> cols;
  CollectColumnRefs(e, &cols);
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0], "temp");
}

TEST(ExpressionTest, AggregateDetection) {
  ExprPtr agg = Expr::Function("sum", {Expr::ColumnRef("temp")});
  EXPECT_TRUE(ContainsAggregate(agg));
  EXPECT_TRUE(IsAggregateFunction("count"));
  EXPECT_FALSE(IsAggregateFunction("sqrt"));
}

TEST(EvaluatorTest, Arithmetic) {
  auto lit = [](double d) { return Expr::Literal(Value(d)); };
  ExprPtr e = Expr::Binary(BinaryOp::kAdd, lit(2),
                           Expr::Binary(BinaryOp::kMul, lit(3), lit(4)));
  auto v = Evaluate(e, [](const std::string&) -> Result<Value> {
    return Status::NotFound("none");
  });
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsFloat64(), 14.0);
}

TEST(EvaluatorTest, IntegerDivisionStaysInt) {
  ExprPtr e = Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value(int64_t{7})),
                           Expr::Literal(Value(int64_t{2})));
  auto v = Evaluate(e, [](const std::string&) -> Result<Value> {
    return Value();
  });
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), ValueType::kInt64);
  EXPECT_EQ(v->AsInt64(), 3);
}

TEST(EvaluatorTest, DivisionByZeroErrors) {
  ExprPtr e = Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value(int64_t{1})),
                           Expr::Literal(Value(int64_t{0})));
  EXPECT_FALSE(Evaluate(e, [](const std::string&) -> Result<Value> {
                 return Value();
               }).ok());
}

TEST(EvaluatorTest, NullPropagatesThroughComparison) {
  ExprPtr e = Expr::Binary(BinaryOp::kLt, Expr::Literal(Value()),
                           Expr::Literal(Value(int64_t{1})));
  auto v = Evaluate(e, [](const std::string&) -> Result<Value> {
    return Value();
  });
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(EvaluatorTest, LikeMatching) {
  EXPECT_TRUE(LikeMatch("IR039", "IR%"));
  EXPECT_TRUE(LikeMatch("IR039", "IR_39"));
  EXPECT_FALSE(LikeMatch("VIS006", "IR%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("abc", "%c"));
  EXPECT_FALSE(LikeMatch("abc", "%d"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));  // % in text matched by literal path
}

TEST(EvaluatorTest, ScalarFunctions) {
  auto eval = [](ExprPtr e) {
    return Evaluate(e, [](const std::string&) -> Result<Value> {
      return Value();
    });
  };
  EXPECT_DOUBLE_EQ(
      eval(Expr::Function("sqrt", {Expr::Literal(Value(9.0))}))->AsFloat64(),
      3.0);
  EXPECT_EQ(
      eval(Expr::Function("floor", {Expr::Literal(Value(2.9))}))->AsInt64(),
      2);
  EXPECT_EQ(eval(Expr::Function("upper", {Expr::Literal(Value("abc"))}))
                ->AsString(),
            "ABC");
  EXPECT_EQ(eval(Expr::Function("coalesce",
                                {Expr::Literal(Value()),
                                 Expr::Literal(Value(int64_t{5}))}))
                ->AsInt64(),
            5);
  EXPECT_EQ(eval(Expr::Function(
                     "if", {Expr::Literal(Value(false)),
                            Expr::Literal(Value(int64_t{1})),
                            Expr::Literal(Value(int64_t{2}))}))
                ->AsInt64(),
            2);
  EXPECT_EQ(eval(Expr::Function("substr", {Expr::Literal(Value("teleios")),
                                           Expr::Literal(Value(int64_t{2})),
                                           Expr::Literal(Value(int64_t{3}))}))
                ->AsString(),
            "ele");
}

TEST(BoundExprTest, BindsColumnsOnce) {
  Table t = Sensors();
  ExprPtr e = Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                           Expr::Literal(Value(300.0)));
  auto bound = BoundExpr::Bind(e, t);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->Eval(t, 0)->Truthy());
  EXPECT_FALSE(bound->Eval(t, 1)->Truthy());
  EXPECT_FALSE(BoundExpr::Bind(Expr::ColumnRef("nope"), t).ok());
}

TEST(BoundExprTest, QualifiedNameFallback) {
  Table t = Sensors();
  auto bound = BoundExpr::Bind(Expr::ColumnRef("s.temp"), t);
  ASSERT_TRUE(bound.ok());
  EXPECT_DOUBLE_EQ(bound->Eval(t, 0)->AsFloat64(), 320.0);
}

TEST(OperatorsTest, FilterKeepsMatchingRows) {
  Table t = Sensors();
  ExprPtr pred = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kEq, Expr::ColumnRef("band"),
                   Expr::Literal(Value("IR039"))),
      Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                   Expr::Literal(Value(310.0))));
  auto out = Filter(t, pred);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->Get(0, 0), Value(int64_t{1}));
}

TEST(OperatorsTest, FilterNullIsFalse) {
  Table t = Sensors();
  ExprPtr pred = Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                              Expr::Literal(Value(0.0)));
  auto out = Filter(t, pred);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);  // the NULL temp row is dropped
}

TEST(OperatorsTest, ProjectComputeInfersTypes) {
  Table t = Sensors();
  auto out = ProjectCompute(
      t, {{Expr::Binary(BinaryOp::kMul, Expr::ColumnRef("id"),
                        Expr::Literal(Value(int64_t{10}))),
           "id10"},
          {Expr::ColumnRef("band"), "b"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(0).type, ColumnType::kInt64);
  EXPECT_EQ(out->schema().field(1).type, ColumnType::kString);
  EXPECT_EQ(out->Get(2, 0), Value(int64_t{30}));
}

Table Bands() {
  Table t{Schema({{"band", ColumnType::kString},
                  {"wavelength", ColumnType::kFloat64}})};
  EXPECT_TRUE(t.AppendRow({Value("IR039"), Value(3.9)}).ok());
  EXPECT_TRUE(t.AppendRow({Value("IR108"), Value(10.8)}).ok());
  return t;
}

TEST(OperatorsTest, HashJoinInner) {
  auto out = HashJoin(Sensors(), Bands(), {"band"}, {"band"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);  // VIS006 has no match
  // Clashing column renamed.
  EXPECT_GE(out->schema().FieldIndex("r_band"), 0);
}

TEST(OperatorsTest, HashJoinLeftOuter) {
  auto out = HashJoin(Sensors(), Bands(), {"band"}, {"band"},
                      JoinType::kLeftOuter);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 4u);
  // The VIS006 row has NULL wavelength.
  int wl = out->schema().FieldIndex("wavelength");
  ASSERT_GE(wl, 0);
  bool found_null = false;
  for (size_t r = 0; r < out->num_rows(); ++r) {
    if (out->Get(r, static_cast<size_t>(wl)).is_null()) found_null = true;
  }
  EXPECT_TRUE(found_null);
}

TEST(OperatorsTest, HashJoinNullKeysNeverMatch) {
  Table left{Schema({{"k", ColumnType::kInt64}})};
  ASSERT_TRUE(left.AppendRow({Value()}).ok());
  Table right{Schema({{"k", ColumnType::kInt64}})};
  ASSERT_TRUE(right.AppendRow({Value()}).ok());
  auto out = HashJoin(left, right, {"k"}, {"k"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(OperatorsTest, GroupAggregate) {
  auto out = GroupAggregate(
      Sensors(), {"band"},
      {{"count", nullptr, "n"},
       {"avg", Expr::ColumnRef("temp"), "avg_temp"},
       {"max", Expr::ColumnRef("temp"), "max_temp"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);
  // Row order follows first appearance: IR039 first.
  EXPECT_EQ(out->Get(0, 0), Value("IR039"));
  EXPECT_EQ(out->Get(0, 1), Value(int64_t{2}));
  EXPECT_DOUBLE_EQ(out->Get(0, 2).AsFloat64(), 312.5);
  EXPECT_DOUBLE_EQ(out->Get(0, 3).AsFloat64(), 320.0);
  // VIS006 group: count(*)=1 but avg over NULL = NULL.
  EXPECT_EQ(out->Get(2, 1), Value(int64_t{1}));
  EXPECT_TRUE(out->Get(2, 2).is_null());
}

TEST(OperatorsTest, GlobalAggregateOnEmptyInput) {
  Table t{Schema({{"x", ColumnType::kInt64}})};
  auto out = GroupAggregate(t, {}, {{"count", nullptr, "n"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->Get(0, 0), Value(int64_t{0}));
}

TEST(OperatorsTest, SumStaysIntegerForIntInput) {
  Table t{Schema({{"x", ColumnType::kInt64}})};
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2})}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{3})}).ok());
  auto out = GroupAggregate(t, {}, {{"sum", Expr::ColumnRef("x"), "s"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Get(0, 0), Value(int64_t{5}));
}

TEST(OperatorsTest, SortMultiKey) {
  auto out = Sort(Sensors(), {{"band", false}, {"temp", true}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Get(0, 1), Value("IR039"));
  EXPECT_DOUBLE_EQ(out->Get(0, 2).AsFloat64(), 320.0);  // desc within band
  EXPECT_DOUBLE_EQ(out->Get(1, 2).AsFloat64(), 305.0);
}

TEST(OperatorsTest, SortIsStable) {
  Table t{Schema({{"k", ColumnType::kInt64}, {"seq", ColumnType::kInt64}})};
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i % 3), Value(i)}).ok());
  }
  auto out = Sort(t, {{"k", false}});
  ASSERT_TRUE(out.ok());
  // Within equal keys, original order (seq ascending) is preserved.
  int64_t prev_key = -1, prev_seq = -1;
  for (size_t r = 0; r < out->num_rows(); ++r) {
    int64_t k = out->Get(r, 0).AsInt64();
    int64_t seq = out->Get(r, 1).AsInt64();
    if (k == prev_key) EXPECT_GT(seq, prev_seq);
    prev_key = k;
    prev_seq = seq;
  }
}

TEST(OperatorsTest, SortNullsFirst) {
  auto out = Sort(Sensors(), {{"temp", false}});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Get(0, 2).is_null());
}

TEST(OperatorsTest, LimitOffset) {
  Table t = Sensors();
  Table window = Limit(t, 2, 1);
  ASSERT_EQ(window.num_rows(), 2u);
  EXPECT_EQ(window.Get(0, 0), Value(int64_t{2}));
}

TEST(OperatorsTest, Distinct) {
  Table t{Schema({{"x", ColumnType::kInt64}})};
  for (int64_t v : {1, 2, 1, 3, 2}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  Table d = Distinct(t);
  ASSERT_EQ(d.num_rows(), 3u);
  EXPECT_EQ(d.Get(0, 0), Value(int64_t{1}));
  EXPECT_EQ(d.Get(2, 0), Value(int64_t{3}));
}

TEST(VectorizedFilterTest, RecognizesSimpleShapes) {
  Table t = Sensors();
  auto col_const = Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                                Expr::Literal(Value(300.0)));
  EXPECT_TRUE(IsVectorizablePredicate(t, col_const));
  auto str_eq = Expr::Binary(BinaryOp::kEq, Expr::ColumnRef("band"),
                             Expr::Literal(Value("IR039")));
  EXPECT_TRUE(IsVectorizablePredicate(t, str_eq));
  auto conj = Expr::Binary(BinaryOp::kAnd, col_const, str_eq);
  EXPECT_TRUE(IsVectorizablePredicate(t, conj));
  auto diff = Expr::Binary(
      BinaryOp::kGt,
      Expr::Binary(BinaryOp::kSub, Expr::ColumnRef("temp"),
                   Expr::ColumnRef("id")),
      Expr::Literal(Value(100.0)));
  EXPECT_TRUE(IsVectorizablePredicate(t, diff));
  // LIKE and function calls are not vectorizable -> interpreter fallback.
  auto like = Expr::Binary(BinaryOp::kLike, Expr::ColumnRef("band"),
                           Expr::Literal(Value("IR%")));
  EXPECT_FALSE(IsVectorizablePredicate(t, like));
  auto fn = Expr::Function("sqrt", {Expr::ColumnRef("temp")});
  EXPECT_FALSE(IsVectorizablePredicate(t, fn));
}

TEST(VectorizedFilterTest, MatchesInterpreterOnAllShapes) {
  Table t = Sensors();
  std::vector<ExprPtr> predicates = {
      Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("temp"),
                   Expr::Literal(Value(300.0))),
      Expr::Binary(BinaryOp::kLe, Expr::Literal(Value(300.0)),
                   Expr::ColumnRef("temp")),  // mirrored constant side
      Expr::Binary(BinaryOp::kEq, Expr::ColumnRef("band"),
                   Expr::Literal(Value("IR039"))),
      Expr::Binary(BinaryOp::kNe, Expr::ColumnRef("band"),
                   Expr::Literal(Value("IR039"))),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnRef("band"),
                   Expr::Literal(Value("NOT_IN_DICT"))),
      Expr::Binary(BinaryOp::kLt, Expr::ColumnRef("id"),
                   Expr::ColumnRef("temp")),
      Expr::Binary(
          BinaryOp::kGt,
          Expr::Binary(BinaryOp::kSub, Expr::ColumnRef("temp"),
                       Expr::ColumnRef("id")),
          Expr::Literal(Value(300.0))),
  };
  // Conjunction of the first two as well.
  predicates.push_back(Expr::Binary(BinaryOp::kAnd, predicates[0],
                                    predicates[2]));
  for (const ExprPtr& p : predicates) {
    auto fast = FilterIndices(t, p);
    auto slow = FilterIndicesInterpreted(t, p);
    ASSERT_TRUE(fast.ok()) << p->ToString();
    ASSERT_TRUE(slow.ok()) << p->ToString();
    EXPECT_EQ(*fast, *slow) << p->ToString();
  }
}

// A NaN row fails every comparison but <>, in the kernel and in the
// interpreter alike (IEEE rules).
TEST(VectorizedFilterTest, NanRowsMatchTheInterpreter) {
  Table t{Schema({{"d", ColumnType::kFloat64}})};
  ASSERT_TRUE(t.AppendRow({Value(std::nan(""))}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1.0)}).ok());
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    ExprPtr p = Expr::Binary(op, Expr::ColumnRef("d"),
                             Expr::Literal(Value(1.0)));
    auto fast = FilterIndices(t, p);
    auto slow = FilterIndicesInterpreted(t, p);
    ASSERT_TRUE(fast.ok() && slow.ok()) << p->ToString();
    EXPECT_EQ(*fast, *slow) << p->ToString();
    // Only the 1.0 row passes =, <= and >=; only the NaN row passes <>.
    bool strict = op == BinaryOp::kLt || op == BinaryOp::kGt;
    EXPECT_EQ(slow->size(), strict ? 0u : 1u) << p->ToString();
  }
}

/// Property sweep: filter + take round trip preserves values for varying
/// table sizes.
class FilterSweep : public ::testing::TestWithParam<int> {};

TEST_P(FilterSweep, ThresholdCountsMatchBruteForce) {
  int n = GetParam();
  Table t{Schema({{"v", ColumnType::kInt64}})};
  int expected = 0;
  for (int i = 0; i < n; ++i) {
    int64_t v = (i * 37) % 101;
    if (v > 50) ++expected;
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  auto out = Filter(t, Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("v"),
                                    Expr::Literal(Value(int64_t{50}))));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), static_cast<size_t>(expected));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FilterSweep,
                         ::testing::Values(0, 1, 10, 257, 4096));

// ---------------------------------------------------------------------------
// Differential coverage of the typed kernels (NoREC-style): the vectorized
// filter and the late-materialised count against the row interpreter,
// and the typed GROUP BY against a reference built cell by cell with
// Table::Get. Seeded and bounded; every check runs at 1, 2 and 8 threads.

/// Restores the global pool to the environment default on scope exit.
class ThreadSweepGuard {
 public:
  ~ThreadSweepGuard() {
    exec::ThreadPool::SetGlobalThreads(exec::ThreadPool::DefaultThreads());
  }
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 17;
  }
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % n); }

 private:
  uint64_t state_;
};

constexpr int64_t kTwo53 = int64_t{1} << 53;
const char* const kWords[] = {"VIS006", "IR039", "IR108", "WV062", "ir039"};

/// BIGINT values that doubles cannot tell apart: ±2^53 and neighbours,
/// plus small ones.
int64_t RandomBigint(Rng& rng) {
  int64_t near = rng.Below(5) - 2;
  switch (rng.Below(3)) {
    case 0:
      return kTwo53 + near;
    case 1:
      return -kTwo53 + near;
    default:
      return rng.Below(41) - 20;
  }
}

/// i, j BIGINT; d DOUBLE (eighths or NaN, never -0); s VARCHAR from a
/// five-word dictionary; b BOOL. Every column has NULLs.
Table RandomTable(Rng& rng, size_t rows) {
  Table t{Schema({{"i", ColumnType::kInt64},
                  {"j", ColumnType::kInt64},
                  {"d", ColumnType::kFloat64},
                  {"s", ColumnType::kString},
                  {"b", ColumnType::kBool}})};
  auto null = [&] { return rng.Below(9) == 0; };
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(null() ? Value() : Value(RandomBigint(rng)));
    row.push_back(null() ? Value() : Value(RandomBigint(rng)));
    row.push_back(null()                ? Value()
                  : rng.Below(16) == 0 ? Value(std::nan(""))
                       : Value(static_cast<double>(rng.Below(161) - 80) / 8));
    row.push_back(null() ? Value() : Value(kWords[rng.Below(5)]));
    row.push_back(null() ? Value() : Value(rng.Below(2) == 0));
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

ExprPtr RandomLiteral(Rng& rng) {
  switch (rng.Below(3)) {
    case 0:
      return Expr::Literal(Value(RandomBigint(rng)));
    case 1:
      return Expr::Literal(Value(static_cast<double>(rng.Below(161) - 80) / 8));
    default:
      return Expr::Literal(Value(static_cast<double>(kTwo53) + 2.0));
  }
}

/// One conjunct of every shape the vectorized path compiles.
ExprPtr RandomConjunct(Rng& rng) {
  const BinaryOp kCmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                            BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  const char* kNumeric[] = {"i", "j", "d", "b"};
  BinaryOp cmp = kCmps[rng.Below(6)];
  ExprPtr a = Expr::ColumnRef(kNumeric[rng.Below(4)]);
  ExprPtr b = Expr::ColumnRef(kNumeric[rng.Below(4)]);
  switch (rng.Below(6)) {
    case 0:
      return Expr::Binary(cmp, a, RandomLiteral(rng));
    case 1:
      return Expr::Binary(cmp, RandomLiteral(rng), a);
    case 2:
      return Expr::Binary(cmp, a, b);
    case 3:
      return Expr::Binary(cmp, Expr::Binary(BinaryOp::kSub, a, b),
                          RandomLiteral(rng));
    case 4:
      return Expr::Binary(rng.Below(2) == 0 ? BinaryOp::kEq : BinaryOp::kNe,
                          Expr::ColumnRef("s"),
                          Expr::Literal(Value(kWords[rng.Below(5)])));
    default:
      return Expr::ColumnRef("b");
  }
}

TEST(KernelDifferentialTest, VectorizedCountMatchesInterpreter) {
  ThreadSweepGuard guard;
  Rng rng(20120827);
  for (int round = 0; round < 12; ++round) {
    Table t = RandomTable(rng, 3000 + static_cast<size_t>(rng.Below(9000)));
    for (int q = 0; q < 25; ++q) {
      ExprPtr p = RandomConjunct(rng);
      for (int64_t k = rng.Below(3); k > 0; --k) {
        p = Expr::Binary(BinaryOp::kAnd, p, RandomConjunct(rng));
      }
      ASSERT_TRUE(IsVectorizablePredicate(t, p)) << p->ToString();
      exec::ThreadPool::SetGlobalThreads(1);
      auto reference = FilterIndicesInterpreted(t, p);
      ASSERT_TRUE(reference.ok()) << p->ToString();
      for (int threads : {1, 2, 8}) {
        exec::ThreadPool::SetGlobalThreads(threads);
        auto sel = FilterIndices(t, p);
        ASSERT_TRUE(sel.ok()) << p->ToString();
        EXPECT_EQ(*sel, *reference) << p->ToString() << " @" << threads;
        auto count = GroupAggregate(t, {}, {{"count", nullptr, "n"}}, &*sel);
        ASSERT_TRUE(count.ok());
        EXPECT_EQ(count->Get(0, 0),
                  Value(static_cast<int64_t>(reference->size())))
            << p->ToString() << " @" << threads;
      }
    }
  }
}

/// GROUP BY over `keys` computed cell by cell: groups in first-seen
/// order, sums in the documented order (rows within a morsel, morsels in
/// index order), extremes by Value::Compare.
Table ReferenceGroupBy(const Table& t, const std::vector<int>& keys,
                       const std::vector<std::pair<std::string, int>>& aggs,
                       const storage::SelectionVector& sel) {
  struct Acc {
    int64_t count = 0;
    Value sum_int = Value(int64_t{0});
    double sum = 0, morsel_sum = 0;
    size_t morsel = SIZE_MAX;
    Value min, max;
  };
  std::vector<std::vector<Value>> group_keys;
  std::vector<std::vector<Acc>> accs;
  exec::MorselPlan plan = exec::PlanMorsels(sel.size());
  for (size_t i = 0; i < sel.size(); ++i) {
    std::vector<Value> key;
    for (int k : keys) key.push_back(t.Get(sel[i], k));
    size_t g = 0;
    while (g < group_keys.size() &&
           !std::equal(key.begin(), key.end(), group_keys[g].begin(),
                       [](const Value& x, const Value& y) {
                         return x.type() == y.type() && x.Compare(y) == 0;
                       })) {
      ++g;
    }
    if (g == group_keys.size()) {
      group_keys.push_back(key);
      accs.emplace_back(aggs.size());
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      Acc& acc = accs[g][a];
      Value v = aggs[a].second < 0 ? Value(int64_t{1})
                                   : t.Get(sel[i], aggs[a].second);
      if (v.is_null()) continue;
      size_t morsel = i / plan.grain;
      if (morsel != acc.morsel) {
        acc.sum += acc.morsel_sum;
        acc.morsel_sum = 0;
        acc.morsel = morsel;
      }
      if (v.type() != ValueType::kString) acc.morsel_sum += *v.ToDouble();
      if (v.type() == ValueType::kInt64) {
        acc.sum_int = Value(static_cast<int64_t>(
            static_cast<uint64_t>(acc.sum_int.AsInt64()) +
            static_cast<uint64_t>(v.AsInt64())));
      }
      if (acc.count == 0 || v.Compare(acc.min) < 0) acc.min = v;
      if (acc.count == 0 || v.Compare(acc.max) > 0) acc.max = v;
      ++acc.count;
    }
  }
  std::vector<storage::Field> fields;
  for (int k : keys) fields.push_back(t.schema().field(k));
  for (const auto& [fn, col] : aggs) {
    ColumnType type = ColumnType::kFloat64;
    if (fn == "count" || (fn == "sum" && col >= 0 &&
                          t.column(col).type() == ColumnType::kInt64)) {
      type = ColumnType::kInt64;
    } else if ((fn == "min" || fn == "max") && col >= 0) {
      type = t.column(col).type();
    }
    fields.push_back({fn, type});
  }
  Table out{Schema(std::move(fields))};
  for (size_t g = 0; g < group_keys.size(); ++g) {
    std::vector<Value> row = group_keys[g];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Acc& acc = accs[g][a];
      const std::string& fn = aggs[a].first;
      double sum = acc.sum + acc.morsel_sum;
      if (fn == "count") {
        row.push_back(Value(acc.count));
      } else if (acc.count == 0) {
        row.emplace_back();
      } else if (fn == "sum" &&
                 out.column(row.size()).type() == ColumnType::kInt64) {
        row.push_back(acc.sum_int);
      } else if (fn == "sum") {
        row.push_back(Value(sum));
      } else if (fn == "avg") {
        row.push_back(Value(sum / static_cast<double>(acc.count)));
      } else {
        row.push_back(fn == "min" ? acc.min : acc.max);
      }
    }
    EXPECT_TRUE(out.AppendRow(row).ok());
  }
  return out;
}

/// Cell-exact comparison, types included (ToString rounds doubles).
void ExpectSameTable(const Table& got, const Table& want,
                     const std::string& what) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  ASSERT_EQ(got.num_columns(), want.num_columns()) << what;
  for (size_t c = 0; c < got.num_columns(); ++c) {
    for (size_t r = 0; r < got.num_rows(); ++r) {
      Value x = got.Get(r, c);
      Value y = want.Get(r, c);
      ASSERT_TRUE(x.type() == y.type() &&
                  (x.type() != ValueType::kFloat64
                       ? x.Compare(y) == 0
                       : std::bit_cast<uint64_t>(x.AsFloat64()) ==
                             std::bit_cast<uint64_t>(y.AsFloat64())))
          << what << " row " << r << " col " << c << ": " << x.ToString()
          << " vs " << y.ToString();
    }
  }
}

TEST(KernelDifferentialTest, TypedGroupByMatchesCellReference) {
  ThreadSweepGuard guard;
  Rng rng(1987);
  const std::vector<std::vector<int>> key_sets = {{3}, {4}, {0}, {3, 4},
                                                  {2, 3}, {4, 1}};
  std::vector<std::pair<std::string, int>> aggs = {
      {"count", -1}, {"count", 2}, {"sum", 0}, {"sum", 2}, {"avg", 2},
      {"min", 0},    {"max", 0},   {"min", 2}, {"max", 2}, {"min", 3},
      {"max", 3},    {"min", 4},   {"max", 4}, {"sum", 4}, {"avg", 1}};
  const char* kNames[] = {"i", "j", "d", "s", "b"};
  std::vector<AggregateItem> items;
  for (const auto& [fn, col] : aggs) {
    items.push_back(
        {fn, col < 0 ? nullptr : Expr::ColumnRef(kNames[col]), fn});
  }
  for (int round = 0; round < 3; ++round) {
    Table t = RandomTable(rng, 9000 + static_cast<size_t>(rng.Below(12000)));
    ExprPtr where = RandomConjunct(rng);
    exec::ThreadPool::SetGlobalThreads(1);
    auto filtered = FilterIndicesInterpreted(t, where);
    ASSERT_TRUE(filtered.ok());
    storage::SelectionVector all(t.num_rows());
    std::iota(all.begin(), all.end(), uint32_t{0});
    for (const std::vector<int>& keys : key_sets) {
      std::vector<std::string> names;
      for (int k : keys) names.push_back(kNames[k]);
      for (const storage::SelectionVector* sel : {&all, &*filtered}) {
        Table want = ReferenceGroupBy(t, keys, aggs, *sel);
        for (int threads : {1, 2, 8}) {
          exec::ThreadPool::SetGlobalThreads(threads);
          auto got = GroupAggregate(t, names, items,
                                    sel == &all ? nullptr : sel);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectSameTable(*got, want,
                          "keys " + names[0] + (sel == &all ? "" : " where " +
                                                    where->ToString()) +
                              " @" + std::to_string(threads));
        }
        // Keys alone (SELECT DISTINCT-style GROUP BY, no aggregate).
        auto keys_only = GroupAggregate(t, names, {}, sel);
        ASSERT_TRUE(keys_only.ok()) << keys_only.status().ToString();
        ExpectSameTable(*keys_only, ReferenceGroupBy(t, keys, {}, *sel),
                        "keys only " + names[0]);
      }
    }
  }
}

}  // namespace
}  // namespace teleios::relational
