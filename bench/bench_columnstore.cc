// E10 — column-store substrate characterization: scan, selection,
// hash join, group-aggregate throughput and the effect of dictionary
// encoding on string columns. These are the MonetDB-style primitives the
// entire TELEIOS database tier sits on.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "relational/sql_engine.h"
#include "storage/catalog.h"

namespace {

using teleios::Value;
using teleios::storage::Catalog;
using teleios::storage::Column;
using teleios::storage::ColumnType;
using teleios::storage::Schema;
using teleios::storage::Table;
using teleios::storage::TablePtr;

/// Deterministic observation table: id, station (8 distinct), temp.
TablePtr MakeObservations(int64_t rows) {
  auto table = std::make_shared<Table>(
      Schema({{"id", ColumnType::kInt64},
              {"station", ColumnType::kString},
              {"temp", ColumnType::kFloat64}}));
  static const char* kStations[] = {"athens", "sparta",   "patras",
                                    "argos",  "tripoli",  "kalamata",
                                    "corinth", "nafplio"};
  for (int64_t i = 0; i < rows; ++i) {
    table->column(0).AppendInt64(i);
    table->column(1).AppendString(kStations[i % 8]);
    table->column(2).AppendFloat64(280.0 + static_cast<double>((i * 37) % 600) / 10.0);
  }
  return table;
}

void BM_ScanSum(benchmark::State& state) {
  TablePtr table = MakeObservations(state.range(0));
  const Column& temp = table->column(2);
  for (auto _ : state) {
    double sum = 0;
    const auto& data = temp.doubles();
    for (double v : data) sum += v;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanSum)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_SqlSelection(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.CreateTable("obs", MakeObservations(state.range(0)));
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    auto r = engine.Execute("SELECT id FROM obs WHERE temp > 330.0");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlSelection)->Arg(10000)->Arg(100000);

void BM_SqlAggregate(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.CreateTable("obs", MakeObservations(state.range(0)));
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    auto r = engine.Execute(
        "SELECT station, avg(temp) AS t, count(*) AS n FROM obs GROUP BY "
        "station");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlAggregate)->Arg(10000)->Arg(100000);

void BM_SqlJoin(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.CreateTable("obs", MakeObservations(state.range(0)));
  auto stations = std::make_shared<Table>(
      Schema({{"station", ColumnType::kString},
              {"region", ColumnType::kString}}));
  static const char* kStations[] = {"athens", "sparta",   "patras",
                                    "argos",  "tripoli",  "kalamata",
                                    "corinth", "nafplio"};
  for (const char* s : kStations) {
    stations->column(0).AppendString(s);
    stations->column(1).AppendString("peloponnese");
  }
  (void)catalog.CreateTable("stations", stations);
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    auto r = engine.Execute(
        "SELECT region, count(*) AS n FROM obs JOIN stations ON "
        "obs.station = stations.station GROUP BY region");
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlJoin)->Arg(10000)->Arg(100000);

/// The archive shape: 400k rows of id, a dictionary-string band (7
/// values, skewed like a real archive's band mix) and a temperature in
/// [250, 350) K, the table behind the archive_analytics workload.
TablePtr MakeArchive(int64_t rows) {
  auto table = std::make_shared<Table>(
      Schema({{"id", ColumnType::kInt64},
              {"band", ColumnType::kString},
              {"temp", ColumnType::kFloat64}}));
  static const char* kBands[] = {"VIS006", "NIR016", "IR039", "IR108",
                                 "IR087",  "IR120",  "WV062"};
  static const int kBandOf[] = {0, 0, 0, 1, 1, 2, 3, 4, 5, 6};
  uint64_t state = 502;
  for (int64_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    table->column(0).AppendInt64(i);
    table->column(1).AppendString(kBands[kBandOf[(state >> 33) % 10]]);
    table->column(2).AppendFloat64(250.0 +
                                   static_cast<double>((state >> 13) % 100000) /
                                       1000.0);
  }
  return table;
}

/// Runs `query(iteration)` through SqlEngine over the archive table.
template <typename Query>
void RunArchiveQuery(benchmark::State& state, Query query) {
  Catalog catalog;
  (void)catalog.CreateTable("m", MakeArchive(state.range(0)));
  teleios::relational::SqlEngine engine(&catalog);
  int64_t i = 0;
  for (auto _ : state) {
    auto r = engine.Execute(query(i++));
    benchmark::DoNotOptimize(r->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// count(*) at ~50% selectivity: a filter whose consumer reads no column.
void BM_SqlCountHalf(benchmark::State& state) {
  RunArchiveQuery(state, [](int64_t) {
    return std::string("SELECT count(*) AS n FROM m WHERE temp > 300.0");
  });
}
BENCHMARK(BM_SqlCountHalf)->Arg(400000);

/// GROUP BY a dictionary-string key with count and max over a double.
void BM_SqlGroupByDictMax(benchmark::State& state) {
  RunArchiveQuery(state, [](int64_t) {
    return std::string(
        "SELECT band, count(*) AS n, max(temp) AS mx FROM m GROUP BY band");
  });
}
BENCHMARK(BM_SqlGroupByDictMax)->Arg(400000);

/// One row by id: the cost should follow the one row returned.
void BM_SqlPointLookup(benchmark::State& state) {
  RunArchiveQuery(state, [&](int64_t i) {
    return "SELECT id, band, temp FROM m WHERE id = " +
           std::to_string((i * 7919) % state.range(0));
  });
}
BENCHMARK(BM_SqlPointLookup)->Arg(400000);

/// Dictionary encoding: append throughput and memory for low-cardinality
/// strings vs unique strings.
void BM_DictionaryEncodedAppend(benchmark::State& state) {
  bool low_cardinality = state.range(0) == 1;
  for (auto _ : state) {
    Column col(ColumnType::kString);
    for (int i = 0; i < 50000; ++i) {
      col.AppendString(low_cardinality
                           ? "station_" + std::to_string(i % 16)
                           : "station_" + std::to_string(i));
    }
    state.counters["dict_entries"] =
        static_cast<double>(col.dict().size());
    state.counters["mem_bytes"] = static_cast<double>(col.MemoryUsage());
    benchmark::DoNotOptimize(col.size());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_DictionaryEncodedAppend)
    ->Arg(1)   // low cardinality: dictionary pays off
    ->Arg(0);  // unique strings: dictionary overhead visible

/// Vectorized-selection ablation (the MonetDB-style design choice): the
/// same predicate through the vectorized path vs the row-wise
/// interpreter.
void BM_FilterVectorized(benchmark::State& state) {
  TablePtr table = MakeObservations(state.range(0));
  auto pred = teleios::relational::Expr::Binary(
      teleios::relational::BinaryOp::kAnd,
      teleios::relational::Expr::Binary(
          teleios::relational::BinaryOp::kGt,
          teleios::relational::Expr::ColumnRef("temp"),
          teleios::relational::Expr::Literal(Value(330.0))),
      teleios::relational::Expr::Binary(
          teleios::relational::BinaryOp::kEq,
          teleios::relational::Expr::ColumnRef("station"),
          teleios::relational::Expr::Literal(Value("sparta"))));
  for (auto _ : state) {
    auto sel = teleios::relational::FilterIndices(*table, pred);
    benchmark::DoNotOptimize(sel->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterVectorized)->Arg(100000)->Arg(1000000);

void BM_FilterInterpreted(benchmark::State& state) {
  TablePtr table = MakeObservations(state.range(0));
  auto pred = teleios::relational::Expr::Binary(
      teleios::relational::BinaryOp::kAnd,
      teleios::relational::Expr::Binary(
          teleios::relational::BinaryOp::kGt,
          teleios::relational::Expr::ColumnRef("temp"),
          teleios::relational::Expr::Literal(Value(330.0))),
      teleios::relational::Expr::Binary(
          teleios::relational::BinaryOp::kEq,
          teleios::relational::Expr::ColumnRef("station"),
          teleios::relational::Expr::Literal(Value("sparta"))));
  for (auto _ : state) {
    auto sel =
        teleios::relational::FilterIndicesInterpreted(*table, pred);
    benchmark::DoNotOptimize(sel->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterInterpreted)->Arg(100000)->Arg(1000000);

/// Predicate pushdown ablation (DESIGN.md design-choice bench): the same
/// join query with selective filter, measured against the planner that
/// pushes it below the join. Both run through the engine; the "nopush"
/// variant simulates no pushdown by filtering after a cross-ish join via
/// a post-hoc HAVING-style filter.
void BM_JoinWithPushdown(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.CreateTable("obs", MakeObservations(100000));
  auto tags = std::make_shared<Table>(Schema({{"id", ColumnType::kInt64},
                                              {"tag", ColumnType::kString}}));
  for (int64_t i = 0; i < 100000; i += 10) {
    tags->column(0).AppendInt64(i);
    tags->column(1).AppendString(i % 20 == 0 ? "hot" : "cold");
  }
  (void)catalog.CreateTable("tags", tags);
  teleios::relational::SqlEngine engine(&catalog);
  for (auto _ : state) {
    // temp > 339 is ~1% selective and pushed below the join.
    auto r = engine.Execute(
        "SELECT tag, count(*) AS n FROM obs JOIN tags ON obs.id = tags.id "
        "WHERE temp > 339.0 GROUP BY tag");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_JoinWithPushdown);

}  // namespace
