#include "relational/sql_planner.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace teleios::relational {

using storage::SelectionVector;
using storage::Table;

namespace {

/// Splits a conjunction into its AND-ed factors.
void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind == ExprKind::kBinary && expr->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(expr->children[0], out);
    SplitConjuncts(expr->children[1], out);
    return;
  }
  out->push_back(expr);
}

ExprPtr AndTogether(const std::vector<ExprPtr>& exprs) {
  ExprPtr acc;
  for (const ExprPtr& e : exprs) {
    acc = acc ? Expr::Binary(BinaryOp::kAnd, acc, e) : e;
  }
  return acc;
}

/// Strips a "qualifier." prefix.
std::string BareName(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

/// Qualifier part of a column ref, or "".
std::string Qualifier(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? std::string() : name.substr(0, dot);
}

/// True if every column referenced by `expr` exists in `schema` and any
/// qualifier matches `names` (table name or alias).
bool ResolvableAgainst(const ExprPtr& expr, const storage::Schema& schema,
                       const std::vector<std::string>& names) {
  std::vector<std::string> cols;
  CollectColumnRefs(expr, &cols);
  for (const std::string& c : cols) {
    std::string q = Qualifier(c);
    if (!q.empty() &&
        std::find(names.begin(), names.end(), q) == names.end()) {
      return false;
    }
    if (schema.FieldIndex(BareName(c)) < 0 && schema.FieldIndex(c) < 0) {
      return false;
    }
  }
  return true;
}

struct JoinKeys {
  std::vector<std::string> left;
  std::vector<std::string> right;
  std::vector<ExprPtr> residue;  // non-equality conditions
};

/// Decomposes an ON condition into equality key pairs between the two
/// sides plus residue.
JoinKeys DecomposeJoinCondition(const ExprPtr& cond,
                                const storage::Schema& left_schema,
                                const storage::Schema& right_schema) {
  JoinKeys keys;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(cond, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq &&
        c->children[0]->kind == ExprKind::kColumnRef &&
        c->children[1]->kind == ExprKind::kColumnRef) {
      std::string a = BareName(c->children[0]->column);
      std::string b = BareName(c->children[1]->column);
      if (left_schema.FieldIndex(a) >= 0 && right_schema.FieldIndex(b) >= 0) {
        keys.left.push_back(a);
        keys.right.push_back(b);
        continue;
      }
      if (left_schema.FieldIndex(b) >= 0 && right_schema.FieldIndex(a) >= 0) {
        keys.left.push_back(b);
        keys.right.push_back(a);
        continue;
      }
    }
    keys.residue.push_back(c);
  }
  return keys;
}

/// Rewrites every occurrence of subtree `target` (matched structurally via
/// ToString) with a column reference to `alias`.
ExprPtr RewriteSubtree(const ExprPtr& expr, const std::string& target_str,
                       const std::string& alias) {
  if (expr->ToString() == target_str) return Expr::ColumnRef(alias);
  if (expr->children.empty()) return expr;
  auto copy = std::make_shared<Expr>(*expr);
  for (ExprPtr& c : copy->children) {
    c = RewriteSubtree(c, target_str, alias);
  }
  return copy;
}

struct PlanTrace {
  std::vector<std::string> steps;
  void Add(std::string s) { steps.push_back(std::move(s)); }
};

Result<Table> RunSelect(const SelectStatement& stmt,
                        const storage::Catalog& catalog, PlanTrace* trace) {
  // --- FROM + pushdown + joins -------------------------------------------
  storage::TablePtr base_ptr;
  std::vector<ExprPtr> conjuncts;
  {
    obs::TraceSpan plan_span("plan");
    TELEIOS_ASSIGN_OR_RETURN(base_ptr, catalog.GetTable(stmt.from.name));
    if (stmt.where) SplitConjuncts(stmt.where, &conjuncts);
    plan_span.SetAttr("conjuncts", std::to_string(conjuncts.size()));
    plan_span.SetAttr("joins", std::to_string(stmt.joins.size()));
  }

  // Filters `table` by the conjuncts that resolve against it alone and
  // drops them from `conjuncts`. Returns `table` itself when none do,
  // else the filtered copy left in `*filtered`.
  auto push_down = [&](const Table& table,
                       const std::vector<std::string>& names,
                       const std::string& note,
                       Table* filtered) -> Result<const Table*> {
    std::vector<ExprPtr> pushed;
    std::vector<ExprPtr> rest;
    for (const ExprPtr& c : conjuncts) {
      (ResolvableAgainst(c, table.schema(), names) ? pushed : rest)
          .push_back(c);
    }
    if (pushed.empty()) return &table;
    conjuncts = std::move(rest);
    trace->Add("  " + note + ": " + AndTogether(pushed)->ToString());
    TELEIOS_ASSIGN_OR_RETURN(*filtered, Filter(table, AndTogether(pushed)));
    return filtered;
  };

  // The relation the operators below read: `*input`, restricted to the
  // WHERE candidate list once the filter ran. A single-table SELECT scans
  // the catalog's table by reference; the join path owns its
  // intermediates.
  const Table* input = base_ptr.get();
  Table joined;
  trace->Add("scan " + stmt.from.name);
  {
    obs::TraceSpan scan_span("scan");
    scan_span.SetAttr("table", stmt.from.name);
    scan_span.SetAttr("rows", std::to_string(input->num_rows()));
    obs::Count("teleios_relational_scans_total");
  }
  if (!stmt.joins.empty()) {
    std::vector<std::string> left_names = {stmt.from.name};
    if (!stmt.from.alias.empty()) left_names.push_back(stmt.from.alias);
    Table left_filtered;
    TELEIOS_ASSIGN_OR_RETURN(
        const Table* left,
        push_down(*base_ptr, left_names, "pushdown filter", &left_filtered));
    for (const JoinClause& join : stmt.joins) {
      TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr right_ptr,
                               catalog.GetTable(join.table.name));
      std::vector<std::string> right_names = {join.table.name};
      if (!join.table.alias.empty()) right_names.push_back(join.table.alias);
      // Push single-side conjuncts below the join (inner joins only; for
      // left outer joins pushing into the right side is still sound, but
      // pushing a left-side filter is too — both are row-preserving here).
      Table right_filtered;
      const Table* right = right_ptr.get();
      if (join.type == JoinType::kInner) {
        TELEIOS_ASSIGN_OR_RETURN(
            right, push_down(*right_ptr, right_names,
                             "pushdown filter (right)", &right_filtered));
      }
      JoinKeys keys = DecomposeJoinCondition(join.condition, left->schema(),
                                             right->schema());
      if (keys.left.empty()) {
        return Status::Unimplemented(
            "join requires at least one equality condition between the two "
            "tables: " +
            join.condition->ToString());
      }
      trace->Add("hash join on " + keys.left[0] + " = " + keys.right[0] +
                 (join.type == JoinType::kLeftOuter ? " (left outer)" : ""));
      {
        obs::TraceSpan join_span("hash join");
        join_span.SetAttr("right", join.table.name);
        TELEIOS_ASSIGN_OR_RETURN(
            joined, HashJoin(*left, *right, keys.left, keys.right, join.type));
        join_span.SetAttr("rows", std::to_string(joined.num_rows()));
      }
      if (!keys.residue.empty()) {
        TELEIOS_ASSIGN_OR_RETURN(joined,
                                 Filter(joined, AndTogether(keys.residue)));
      }
      left = &joined;
      left_names.insert(left_names.end(), right_names.begin(),
                        right_names.end());
    }
    input = &joined;
  }

  // --- plan the consumer --------------------------------------------------
  // It decides which columns are Taken through the WHERE candidate list:
  // a projection Takes its own column references, an aggregate reads its
  // key and argument columns through the list and Takes only what a
  // computed key or argument needs.
  bool has_aggregate =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& it) {
                    return !it.is_star && ContainsAggregate(it.expr);
                  });
  size_t columns_taken = 0;

  // Aggregate: keys and aggregates over plain columns, and `pre`, the
  // working table of referenced columns plus computed keys (_gN) and
  // arguments (_aN), materialised only when something is computed.
  std::vector<std::string> group_names;
  std::vector<AggregateItem> aggs;
  std::vector<ProjectItem> pre;
  bool computed = false;
  auto pre_column = [&](const ExprPtr& ref) {
    std::string name = BareName(ref->column);
    if (std::none_of(pre.begin(), pre.end(), [&](const ProjectItem& p) {
          return p.alias == name;
        })) {
      pre.push_back({ref, name});
    }
  };
  auto add_aggregate = [&](const ExprPtr& call, const std::string& alias) {
    AggregateItem agg{call->function, nullptr, alias};
    if (!call->children.empty()) {
      agg.argument = call->children[0];
      if (agg.argument->kind == ExprKind::kColumnRef) {
        pre_column(agg.argument);
      } else {
        std::string name = "_a" + std::to_string(aggs.size());
        pre.push_back({agg.argument, name});
        agg.argument = Expr::ColumnRef(name);
        computed = true;
      }
    }
    aggs.push_back(std::move(agg));
  };
  struct OutputItem {
    bool from_group;
    std::string name;   // group column or aggregate alias
    std::string alias;  // output name
  };
  std::vector<OutputItem> outputs;
  ExprPtr having = stmt.having;
  // Projection: one item per output column; SELECT * alone Takes rows.
  bool star_only = stmt.items.size() == 1 && stmt.items[0].is_star;
  std::vector<ProjectItem> proj;

  if (has_aggregate) {
    int gi = 0;
    for (const ExprPtr& g : stmt.group_by) {
      if (g->kind == ExprKind::kColumnRef) {
        group_names.push_back(BareName(g->column));
        pre_column(g);
      } else {
        std::string name = "_g" + std::to_string(gi++);
        pre.push_back({g, name});
        group_names.push_back(name);
        computed = true;
      }
    }
    // Select items: group columns or aggregate calls.
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        return Status::InvalidArgument("SELECT * with GROUP BY");
      }
      if (ContainsAggregate(item.expr)) {
        if (item.expr->kind != ExprKind::kFunction ||
            !IsAggregateFunction(item.expr->function)) {
          return Status::Unimplemented(
              "aggregate must be a direct function call: " +
              item.expr->ToString());
        }
        add_aggregate(item.expr, item.alias);
        outputs.push_back({false, item.alias, item.alias});
      } else {
        // Must match a group expression.
        std::string bare = item.expr->kind == ExprKind::kColumnRef
                               ? BareName(item.expr->column)
                               : item.expr->ToString();
        auto it = std::find(group_names.begin(), group_names.end(), bare);
        if (it == group_names.end()) {
          // Try structural match against the original group expressions.
          bool found = false;
          for (size_t g = 0; g < stmt.group_by.size(); ++g) {
            if (stmt.group_by[g]->ToString() == item.expr->ToString()) {
              bare = group_names[g];
              found = true;
              break;
            }
          }
          if (!found) {
            return Status::InvalidArgument(
                "non-aggregate select item not in GROUP BY: " +
                item.expr->ToString());
          }
        }
        outputs.push_back({true, bare, item.alias});
      }
    }
    // HAVING may reference aggregates; materialize them too.
    if (having) {
      std::vector<ExprPtr> agg_calls;
      std::function<void(const ExprPtr&)> collect = [&](const ExprPtr& e) {
        if (e->kind == ExprKind::kFunction && IsAggregateFunction(e->function)) {
          agg_calls.push_back(e);
          return;
        }
        for (const ExprPtr& c : e->children) collect(c);
      };
      collect(having);
      for (const ExprPtr& call : agg_calls) {
        std::string call_str = call->ToString();
        // Reuse an existing aggregate when the select list already has it.
        std::string alias;
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          if (!stmt.items[i].is_star &&
              stmt.items[i].expr->ToString() == call_str) {
            alias = stmt.items[i].alias;
            break;
          }
        }
        if (alias.empty()) {
          alias = "_h" + std::to_string(aggs.size());
          add_aggregate(call, alias);
        }
        having = RewriteSubtree(having, call_str, alias);
      }
    }
    if (computed) {
      columns_taken = static_cast<size_t>(
          std::count_if(pre.begin(), pre.end(), [](const ProjectItem& p) {
            return p.expr->kind == ExprKind::kColumnRef;
          }));
    }
  } else if (star_only) {
    columns_taken = input->num_columns();
  } else {
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        for (size_t c = 0; c < input->num_columns(); ++c) {
          const std::string& name = input->schema().field(c).name;
          proj.push_back({Expr::ColumnRef(name), name});
        }
      } else {
        proj.push_back({item.expr, item.alias});
      }
    }
    columns_taken = static_cast<size_t>(
        std::count_if(proj.begin(), proj.end(), [](const ProjectItem& p) {
          return p.expr->kind == ExprKind::kColumnRef;
        }));
  }

  // --- WHERE: a candidate list over `input` -------------------------------
  std::optional<SelectionVector> sel;
  if (!conjuncts.empty()) {
    ExprPtr where = AndTogether(conjuncts);
    trace->Add("filter " + where->ToString() +
               (IsVectorizablePredicate(*input, where) ? " [vectorized]"
                                                       : " [interpreted]"));
    obs::TraceSpan filter_span("filter");
    filter_span.SetAttr("rows_in", std::to_string(input->num_rows()));
    TELEIOS_ASSIGN_OR_RETURN(sel, FilterIndices(*input, where));
    filter_span.SetAttr("rows_out", std::to_string(sel->size()));
    filter_span.SetAttr("columns_taken", std::to_string(columns_taken));
  }
  const SelectionVector* rows = sel ? &*sel : nullptr;

  // --- aggregation or plain projection -----------------------------------
  Table output;
  if (has_aggregate) {
    const Table* agg_input = input;
    Table working;
    if (computed) {
      TELEIOS_ASSIGN_OR_RETURN(working, ProjectCompute(*input, pre, rows));
      agg_input = &working;
      rows = nullptr;
    }
    trace->Add("group aggregate (" + std::to_string(group_names.size()) +
               " keys, " + std::to_string(aggs.size()) + " aggregates)");
    obs::TraceSpan agg_span("aggregate");
    agg_span.SetAttr("rows_in", std::to_string(rows != nullptr
                                                   ? rows->size()
                                                   : agg_input->num_rows()));
    TELEIOS_ASSIGN_OR_RETURN(
        Table agg_out, GroupAggregate(*agg_input, group_names, aggs, rows));
    agg_span.SetAttr("rows_out", std::to_string(agg_out.num_rows()));
    if (having) {
      trace->Add("having " + having->ToString());
      TELEIOS_ASSIGN_OR_RETURN(agg_out, Filter(agg_out, having));
    }
    // Final projection to requested output order / names.
    std::vector<ProjectItem> final_items;
    for (const OutputItem& o : outputs) {
      final_items.push_back({Expr::ColumnRef(o.name), o.alias});
    }
    TELEIOS_ASSIGN_OR_RETURN(output, ProjectCompute(agg_out, final_items));
  } else if (star_only) {
    if (rows != nullptr) {
      output = input->Take(*rows);
    } else {
      output = input == &joined ? std::move(joined) : *input;
    }
  } else {
    trace->Add("project " + std::to_string(proj.size()) + " columns");
    TELEIOS_ASSIGN_OR_RETURN(output, ProjectCompute(*input, proj, rows));
  }

  if (stmt.distinct) {
    trace->Add("distinct");
    output = Distinct(output);
  }
  if (!stmt.order_by.empty()) {
    std::vector<SortKey> keys;
    for (const OrderItem& o : stmt.order_by) {
      keys.push_back({o.column, o.descending});
    }
    trace->Add("sort");
    obs::TraceSpan sort_span("sort");
    TELEIOS_ASSIGN_OR_RETURN(output, Sort(output, keys));
  }
  if (stmt.limit >= 0 || stmt.offset > 0) {
    size_t limit = stmt.limit >= 0 ? static_cast<size_t>(stmt.limit)
                                   : output.num_rows();
    trace->Add("limit " + std::to_string(limit));
    output = Limit(output, limit, static_cast<size_t>(stmt.offset));
  }
  return output;
}

}  // namespace

Result<Table> ExecuteSelect(const SelectStatement& stmt,
                            const storage::Catalog& catalog) {
  PlanTrace trace;
  obs::TraceSpan exec_span("execute");
  Result<Table> result = RunSelect(stmt, catalog, &trace);
  if (result.ok()) {
    exec_span.SetAttr("rows", std::to_string(result->num_rows()));
    obs::Count("teleios_relational_rows_emitted_total", result->num_rows());
  }
  return result;
}

Result<std::string> ExplainSelect(const SelectStatement& stmt,
                                  const storage::Catalog& catalog) {
  PlanTrace trace;
  TELEIOS_ASSIGN_OR_RETURN(Table out, RunSelect(stmt, catalog, &trace));
  (void)out;  // EXPLAIN wants the trace, not the rows; execution errors
              // still propagate via ASSIGN_OR_RETURN above.
  std::ostringstream os;
  for (const std::string& s : trace.steps) os << s << "\n";
  return os.str();
}

}  // namespace teleios::relational
