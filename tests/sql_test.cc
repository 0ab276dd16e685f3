#include <gtest/gtest.h>

#include "relational/sql_engine.h"
#include "relational/sql_lexer.h"
#include "relational/sql_parser.h"

namespace teleios::relational {
namespace {

using storage::Catalog;
using storage::Table;

TEST(SqlLexerTest, TokenKinds) {
  auto tokens = LexSql("SELECT x, 'it''s' FROM t WHERE y >= 3.5 -- c\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[3].type, TokenType::kString);
  EXPECT_EQ((*tokens)[3].text, "it's");
  // ... WHERE y >= 3.5
  bool saw_ge = false;
  bool saw_float = false;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kSymbol && t.text == ">=") saw_ge = true;
    if (t.type == TokenType::kFloat && t.float_value == 3.5) saw_float = true;
  }
  EXPECT_TRUE(saw_ge);
  EXPECT_TRUE(saw_float);
}

TEST(SqlLexerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(LexSql("SELECT 'oops").ok());
}

TEST(SqlLexerTest, RejectsUnknownCharacter) {
  EXPECT_FALSE(LexSql("SELECT \x01").ok());
}

TEST(SqlParserTest, SelectClauses) {
  auto stmt = ParseSql(
      "SELECT band, avg(temp) AS t FROM sensors WHERE temp > 300 "
      "GROUP BY band HAVING count(*) > 1 ORDER BY t DESC LIMIT 5 OFFSET 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& s = std::get<SelectStatement>(*stmt);
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "t");
  EXPECT_NE(s.where, nullptr);
  EXPECT_EQ(s.group_by.size(), 1u);
  EXPECT_NE(s.having, nullptr);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].descending);
  EXPECT_EQ(s.limit, 5);
  EXPECT_EQ(s.offset, 2);
}

TEST(SqlParserTest, JoinAndAlias) {
  auto stmt = ParseSql(
      "SELECT a.x FROM t1 a JOIN t2 AS b ON a.x = b.y LEFT JOIN t3 ON "
      "t1.x = t3.z");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& s = std::get<SelectStatement>(*stmt);
  EXPECT_EQ(s.from.alias, "a");
  ASSERT_EQ(s.joins.size(), 2u);
  EXPECT_EQ(s.joins[0].table.alias, "b");
  EXPECT_EQ(s.joins[1].type, JoinType::kLeftOuter);
}

TEST(SqlParserTest, InBetweenIsNull) {
  auto stmt = ParseSql(
      "SELECT * FROM t WHERE a IN (1, 2) AND b BETWEEN 3 AND 4 AND c IS "
      "NOT NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
}

TEST(SqlParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseSql("SELECT * FROM t zz vv").ok());
  EXPECT_FALSE(ParseSql("FROB TABLE x").ok());
}

TEST(SqlParserTest, SlabOnTableRef) {
  auto stmt = ParseSql("SELECT * FROM img[0:10, 5:20]");
  ASSERT_TRUE(stmt.ok());
  const auto& s = std::get<SelectStatement>(*stmt);
  ASSERT_EQ(s.from.slab.size(), 2u);
  EXPECT_EQ(s.from.slab[0].first, 0);
  EXPECT_EQ(s.from.slab[1].second, 20);
}

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<SqlEngine>(&catalog_);
    Exec("CREATE TABLE obs (id INT, station VARCHAR, temp DOUBLE)");
    Exec("INSERT INTO obs VALUES (1, 'athens', 33.5), (2, 'sparta', 36.0), "
         "(3, 'athens', 31.0), (4, 'patras', NULL)");
  }

  Table Exec(const std::string& sql) {
    auto r = engine_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : Table();
  }

  Catalog catalog_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(SqlEngineTest, SelectStar) {
  Table t = Exec("SELECT * FROM obs");
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 3u);
}

TEST_F(SqlEngineTest, WhereProjection) {
  Table t = Exec("SELECT station, temp FROM obs WHERE temp > 32");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 0), Value("athens"));
  EXPECT_EQ(t.Get(1, 0), Value("sparta"));
}

TEST_F(SqlEngineTest, ComputedColumns) {
  Table t = Exec("SELECT id * 2 AS twice FROM obs WHERE id = 3");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Get(0, 0), Value(int64_t{6}));
}

TEST_F(SqlEngineTest, GroupByHaving) {
  Table t = Exec(
      "SELECT station, count(*) AS n, avg(temp) AS t FROM obs "
      "GROUP BY station HAVING count(*) > 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Get(0, 0), Value("athens"));
  EXPECT_EQ(t.Get(0, 1), Value(int64_t{2}));
  EXPECT_DOUBLE_EQ(t.Get(0, 2).AsFloat64(), 32.25);
}

TEST_F(SqlEngineTest, GroupByExpression) {
  Table t = Exec("SELECT id / 2 AS half, count(*) AS n FROM obs GROUP BY "
                 "id / 2 ORDER BY half");
  EXPECT_EQ(t.num_rows(), 3u);  // halves: 0, 1, 2
}

TEST_F(SqlEngineTest, OrderLimit) {
  Table t = Exec("SELECT id FROM obs ORDER BY id DESC LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 0), Value(int64_t{4}));
  EXPECT_EQ(t.Get(1, 0), Value(int64_t{3}));
}

TEST_F(SqlEngineTest, Distinct) {
  Table t = Exec("SELECT DISTINCT station FROM obs");
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(SqlEngineTest, JoinWithPushdown) {
  Exec("CREATE TABLE stations (station VARCHAR, region VARCHAR)");
  Exec("INSERT INTO stations VALUES ('athens', 'attica'), "
       "('sparta', 'laconia')");
  Table t = Exec(
      "SELECT region, temp FROM obs JOIN stations ON obs.station = "
      "stations.station WHERE temp > 32");
  ASSERT_EQ(t.num_rows(), 2u);
  auto plan = engine_->Explain(
      "SELECT region, temp FROM obs JOIN stations ON obs.station = "
      "stations.station WHERE temp > 32");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("pushdown"), std::string::npos)
      << "expected pushdown in plan:\n"
      << *plan;
  EXPECT_NE(plan->find("hash join"), std::string::npos);
}

TEST_F(SqlEngineTest, LeftJoinKeepsUnmatched) {
  Exec("CREATE TABLE notes (station VARCHAR, note VARCHAR)");
  Exec("INSERT INTO notes VALUES ('athens', 'hot')");
  Table t = Exec(
      "SELECT obs.station, note FROM obs LEFT JOIN notes ON obs.station = "
      "notes.station");
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(SqlEngineTest, InsertSubsetColumns) {
  Exec("INSERT INTO obs (id, station) VALUES (9, 'argos')");
  Table t = Exec("SELECT temp FROM obs WHERE id = 9");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.Get(0, 0).is_null());
}

TEST_F(SqlEngineTest, UpdateWithWhere) {
  Table affected = Exec("UPDATE obs SET temp = temp + 1 WHERE station = "
                        "'athens'");
  EXPECT_EQ(affected.Get(0, 0), Value(int64_t{2}));
  Table t = Exec("SELECT temp FROM obs WHERE id = 1");
  EXPECT_DOUBLE_EQ(t.Get(0, 0).AsFloat64(), 34.5);
}

TEST_F(SqlEngineTest, DeleteWithWhere) {
  Table affected = Exec("DELETE FROM obs WHERE temp IS NULL");
  EXPECT_EQ(affected.Get(0, 0), Value(int64_t{1}));
  EXPECT_EQ(Exec("SELECT * FROM obs").num_rows(), 3u);
}

TEST_F(SqlEngineTest, DropTable) {
  Exec("DROP TABLE obs");
  EXPECT_FALSE(engine_->Execute("SELECT * FROM obs").ok());
}

TEST_F(SqlEngineTest, ErrorsSurfaceCleanly) {
  EXPECT_EQ(engine_->Execute("SELECT nope FROM obs").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_->Execute("SELECT * FROM missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_->Execute("CREATE TABLE obs (x INT)").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_->Execute("SELECT FROM obs").status().code(),
            StatusCode::kParseError);
}

TEST_F(SqlEngineTest, StringFunctionsInQueries) {
  Table t = Exec("SELECT upper(station) AS s FROM obs WHERE id = 1");
  EXPECT_EQ(t.Get(0, 0), Value("ATHENS"));
}

TEST_F(SqlEngineTest, LikeInWhere) {
  Table t = Exec("SELECT id FROM obs WHERE station LIKE 'a%'");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(SqlEngineTest, BetweenAndInEndToEnd) {
  Table between = Exec("SELECT id FROM obs WHERE temp BETWEEN 31 AND 34");
  EXPECT_EQ(between.num_rows(), 2u);  // 33.5 and 31.0
  Table in_list = Exec(
      "SELECT id FROM obs WHERE station IN ('sparta', 'patras') ORDER BY id");
  ASSERT_EQ(in_list.num_rows(), 2u);
  EXPECT_EQ(in_list.Get(0, 0), Value(int64_t{2}));
  Table not_in = Exec("SELECT id FROM obs WHERE station NOT IN ('athens')");
  EXPECT_EQ(not_in.num_rows(), 2u);
}

TEST_F(SqlEngineTest, ExplainShowsVectorizedFilter) {
  auto plan = engine_->Explain("SELECT id FROM obs WHERE temp > 32");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("[vectorized]"), std::string::npos) << *plan;
  auto interpreted =
      engine_->Explain("SELECT id FROM obs WHERE station LIKE 'a%'");
  ASSERT_TRUE(interpreted.ok());
  EXPECT_NE(interpreted->find("[interpreted]"), std::string::npos)
      << *interpreted;
}

/// Regression: the vectorized filter compared BIGINT through double, so
/// 2^53 and 2^53 + 1 were one value to it but two to the interpreter.
TEST(SqlBigintTest, VectorizedFilterComparesBigintExactly) {
  Catalog catalog;
  SqlEngine engine(&catalog);
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT, other INT)").ok());
  ASSERT_TRUE(engine
                  .Execute("INSERT INTO t VALUES "
                           "(9007199254740992, 9007199254740993), "
                           "(9007199254740993, 9007199254740992)")
                  .ok());
  auto count = [&](const std::string& where) -> int64_t {
    auto out = engine.Execute("SELECT count(*) AS n FROM t WHERE " + where);
    EXPECT_TRUE(out.ok()) << where << " -> " << out.status().ToString();
    return out.ok() ? out->Get(0, 0).AsInt64() : -1;
  };
  auto plan = engine.Explain(
      "SELECT count(*) AS n FROM t WHERE id = 9007199254740993");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("[vectorized]"), std::string::npos) << *plan;
  EXPECT_EQ(count("id = 9007199254740993"), 1);        // vectorized
  EXPECT_EQ(count("id + 0 = 9007199254740993"), 1);    // interpreted
  EXPECT_EQ(count("9007199254740993 > id"), 1);        // mirrored constant
  EXPECT_EQ(count("id < other"), 1);                   // column vs column
  EXPECT_EQ(count("id - other = 1"), 1);               // BIGINT difference
  EXPECT_EQ(count("id = 9007199254740993.0"), 2);      // DOUBLE literal
}

/// Parameterized aggregate correctness sweep against a closed form.
class AggregateSweep : public ::testing::TestWithParam<int> {};

TEST_P(AggregateSweep, SumOfFirstN) {
  int n = GetParam();
  Catalog catalog;
  SqlEngine engine(&catalog);
  ASSERT_TRUE(engine.Execute("CREATE TABLE seq (v INT)").ok());
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO seq VALUES (" +
                             std::to_string(i) + ")")
                    .ok());
  }
  auto out = engine.Execute("SELECT sum(v) AS s, count(*) AS c FROM seq");
  ASSERT_TRUE(out.ok());
  if (n == 0) {
    EXPECT_TRUE(out->Get(0, 0).is_null());
  } else {
    EXPECT_EQ(out->Get(0, 0), Value(int64_t{n} * (n + 1) / 2));
  }
  EXPECT_EQ(out->Get(0, 1), Value(int64_t{n}));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AggregateSweep,
                         ::testing::Values(0, 1, 2, 10, 100));

}  // namespace
}  // namespace teleios::relational
