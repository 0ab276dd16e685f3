#include "strabon/strabon.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/strings.h"
#include "geo/wkt.h"
#include "io/filesystem.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace teleios::strabon {

using rdf::kNoTerm;
using rdf::Term;
using rdf::TermId;
using rdf::Triple;

Result<size_t> Strabon::LoadTurtle(const std::string& text) {
  return rdf::ParseTurtle(text, &store_);
}

Result<size_t> Strabon::LoadTurtleFile(const std::string& path) {
  TELEIOS_ASSIGN_OR_RETURN(std::string text,
                           io::GetFileSystem()->ReadFile(path));
  return LoadTurtle(text);
}

void Strabon::Add(const Term& s, const Term& p, const Term& o) {
  store_.Add(s, p, o);
  static auto* added = obs::MetricsRegistry::Global().GetCounter(
      "teleios_strabon_triples_added_total");
  added->Inc();
}

void Strabon::EnsureSpatialIndex() {
  TermId n = store_.dict().size();
  if (indexed_terms_ == n) return;
  std::vector<geo::RTree::Entry> entries;
  for (TermId id = indexed_terms_; id < n; ++id) {
    const Term& t = store_.dict().At(id);
    if (!t.IsWkt()) continue;
    auto g = cache_.Get(t);
    if (!g.ok()) continue;  // malformed WKT literals are simply not indexed
    entries.push_back({(*g)->GetEnvelope(), id});
  }
  indexed_terms_ = n;
  if (entries.empty()) return;
  if (rtree_.size() == 0) {
    obs::TraceSpan span("rtree.build",
                        obs::MetricsRegistry::Global().GetHistogram(
                            "teleios_strabon_index_build_millis"));
    obs::Count("teleios_strabon_index_builds_total");
    rtree_.BulkLoad(std::move(entries));
  } else {
    obs::Count("teleios_strabon_index_inserts_total", entries.size());
    for (const geo::RTree::Entry& e : entries) rtree_.Insert(e.box, e.id);
  }
  obs::SetGauge("teleios_strabon_indexed_geometries",
                static_cast<double>(rtree_.size()));
}

namespace {

/// Recognizes `strdf:rel(?v, CONST-WKT)` / `strdf:rel(CONST-WKT, ?v)`;
/// fills var + envelope on success.
bool MatchSpatialRelFilter(const SparqlExprPtr& e, GeometryCache* cache,
                           std::string* var, geo::Envelope* box) {
  if (e->kind != SparqlExprKind::kCall || RelationOf(e->function) ==
                                              SpatialRelation::kNone) {
    return false;
  }
  if (RelationOf(e->function) == SpatialRelation::kDisjoint) return false;
  if (e->args.size() != 2) return false;
  const SparqlExprPtr* var_arg = nullptr;
  const SparqlExprPtr* const_arg = nullptr;
  if (e->args[0]->kind == SparqlExprKind::kVar &&
      e->args[1]->kind == SparqlExprKind::kTerm) {
    var_arg = &e->args[0];
    const_arg = &e->args[1];
  } else if (e->args[1]->kind == SparqlExprKind::kVar &&
             e->args[0]->kind == SparqlExprKind::kTerm) {
    var_arg = &e->args[1];
    const_arg = &e->args[0];
  } else {
    return false;
  }
  auto g = cache->Get((*const_arg)->term);
  if (!g.ok()) return false;
  *var = (*var_arg)->var;
  *box = (*g)->GetEnvelope();
  return true;
}

/// Recognizes `strdf:distance(?v, CONST) <= d` (and geodesicDistance /
/// strict <). Returns the search envelope grown appropriately.
bool MatchDistanceFilter(const SparqlExprPtr& e, GeometryCache* cache,
                         std::string* var, geo::Envelope* box) {
  if (e->kind != SparqlExprKind::kBinary ||
      (e->op != SparqlBinaryOp::kLe && e->op != SparqlBinaryOp::kLt)) {
    return false;
  }
  const SparqlExprPtr& call = e->args[0];
  const SparqlExprPtr& bound = e->args[1];
  if (call->kind != SparqlExprKind::kCall || bound->kind !=
                                                 SparqlExprKind::kTerm) {
    return false;
  }
  bool geodesic = call->function ==
                  "http://strdf.di.uoa.gr/ontology#geodesicDistance";
  bool planar = call->function == "http://strdf.di.uoa.gr/ontology#distance";
  if (!geodesic && !planar) return false;
  if (call->args.size() != 2) return false;
  const SparqlExprPtr* var_arg = nullptr;
  const SparqlExprPtr* const_arg = nullptr;
  if (call->args[0]->kind == SparqlExprKind::kVar &&
      call->args[1]->kind == SparqlExprKind::kTerm) {
    var_arg = &call->args[0];
    const_arg = &call->args[1];
  } else if (call->args[1]->kind == SparqlExprKind::kVar &&
             call->args[0]->kind == SparqlExprKind::kTerm) {
    var_arg = &call->args[1];
    const_arg = &call->args[0];
  } else {
    return false;
  }
  auto g = cache->Get((*const_arg)->term);
  if (!g.ok()) return false;
  auto d = ParseDouble(bound->term.lexical);
  if (!d.ok()) return false;
  double margin = *d;
  if (geodesic) {
    // Convert meters to a conservative degree margin. The smallest
    // meters-per-degree at the envelope's max |latitude| bounds the
    // needed margin; clamp cos to keep the margin finite near the poles.
    geo::Envelope env = (*g)->GetEnvelope();
    double max_abs_lat =
        std::min(89.0, std::max(std::fabs(env.min_y), std::fabs(env.max_y)) +
                           *d / 111320.0);
    double cos_lat = std::max(0.05, std::cos(max_abs_lat * M_PI / 180.0));
    margin = *d / (111320.0 * cos_lat);
  }
  geo::Envelope env = (*g)->GetEnvelope();
  env.min_x -= margin;
  env.min_y -= margin;
  env.max_x += margin;
  env.max_y += margin;
  *var = (*var_arg)->var;
  *box = env;
  return true;
}

}  // namespace

Result<CandidateSets> Strabon::SpatialCandidates(const GroupPattern& where) {
  CandidateSets sets;
  if (!spatial_index_enabled_) return sets;
  for (const SparqlExprPtr& f : where.filters) {
    std::string var;
    geo::Envelope box;
    bool matched = MatchSpatialRelFilter(f, &cache_, &var, &box) ||
                   MatchDistanceFilter(f, &cache_, &var, &box);
    if (!matched) continue;
    EnsureSpatialIndex();
    obs::Count("teleios_strabon_rtree_probes_total");
    std::unordered_set<TermId> ids;
    for (int64_t id : rtree_.Query(box)) {
      ids.insert(static_cast<TermId>(id));
    }
    auto it = sets.find(var);
    if (it == sets.end()) {
      sets.emplace(var, std::move(ids));
    } else {
      // Intersect with the existing restriction.
      std::unordered_set<TermId> merged;
      for (TermId id : ids) {
        if (it->second.count(id)) merged.insert(id);
      }
      it->second = std::move(merged);
    }
  }
  return sets;
}

namespace {

bool ContainsAggregateExpr(const SparqlExprPtr& e) {
  if (!e) return false;
  if (IsAggregateCall(e)) return true;
  for (const SparqlExprPtr& a : e->args) {
    if (ContainsAggregateExpr(a)) return true;
  }
  return false;
}

}  // namespace

/// GROUP BY + aggregate projection over a solution set.
static Result<SolutionSet> AggregateSolutions(
    const SparqlQuery& query, const SolutionSet& solutions,
    SparqlEvaluator* eval, rdf::TermDictionary* dict) {
  // Plain projected variables must be grouping variables.
  for (const std::string& v : query.variables) {
    if (std::find(query.group_by.begin(), query.group_by.end(), v) ==
        query.group_by.end()) {
      return Status::InvalidArgument("variable ?" + v +
                                     " must appear in GROUP BY");
    }
  }
  std::vector<int> group_cols;
  for (const std::string& g : query.group_by) {
    group_cols.push_back(solutions.VarIndex(g));
  }
  // Group rows (a single global group when GROUP BY is absent).
  std::unordered_map<std::string, std::vector<size_t>> groups;
  std::vector<std::string> order;
  for (size_t r = 0; r < solutions.rows.size(); ++r) {
    std::string key;
    for (int c : group_cols) {
      key += std::to_string(c < 0 ? kNoTerm : solutions.rows[r][c]) + "|";
    }
    auto it = groups.find(key);
    if (it == groups.end()) {
      groups.emplace(key, std::vector<size_t>{r});
      order.push_back(key);
    } else {
      it->second.push_back(r);
    }
  }
  if (groups.empty() && query.group_by.empty()) {
    groups.emplace("", std::vector<size_t>{});
    order.push_back("");
  }

  SolutionSet out;
  out.vars = query.variables;
  for (const SparqlProjection& p : query.computed) out.vars.push_back(p.name);

  for (const std::string& key : order) {
    const std::vector<size_t>& members = groups.at(key);
    std::vector<TermId> row;
    for (const std::string& v : query.variables) {
      int idx = solutions.VarIndex(v);
      row.push_back(idx < 0 || members.empty() ? kNoTerm
                                               : solutions.rows[members[0]][idx]);
    }
    for (const SparqlProjection& p : query.computed) {
      Term value;
      if (IsAggregateCall(p.expr)) {
        std::string fn = p.expr->function;
        for (char& ch : fn) ch = static_cast<char>(std::tolower(ch));
        if (fn == "count") {
          int64_t n = 0;
          if (p.expr->args.empty()) {
            n = static_cast<int64_t>(members.size());
          } else {
            for (size_t r : members) {
              if (eval->EvalExpr(p.expr->args[0], solutions, r).ok()) ++n;
            }
          }
          value = Term::IntegerLiteral(n);
        } else if (fn == "sum" || fn == "avg") {
          if (p.expr->args.size() != 1) {
            return Status::InvalidArgument(fn + " expects one argument");
          }
          double sum = 0;
          int64_t n = 0;
          for (size_t r : members) {
            auto v = eval->EvalExpr(p.expr->args[0], solutions, r);
            if (!v.ok()) continue;
            auto d = ParseDouble(v->lexical);
            if (!d.ok()) continue;
            sum += *d;
            ++n;
          }
          if (fn == "avg" && n > 0) sum /= static_cast<double>(n);
          value = Term::DoubleLiteral(sum);
        } else {  // min / max
          if (p.expr->args.size() != 1) {
            return Status::InvalidArgument(fn + " expects one argument");
          }
          bool seen = false;
          Term best;
          for (size_t r : members) {
            auto v = eval->EvalExpr(p.expr->args[0], solutions, r);
            if (!v.ok()) continue;
            if (!seen) {
              best = *v;
              seen = true;
              continue;
            }
            int c = SparqlEvaluator::CompareTerms(*v, best);
            if ((fn == "min" && c < 0) || (fn == "max" && c > 0)) best = *v;
          }
          if (!seen) {
            row.push_back(kNoTerm);
            continue;
          }
          value = best;
        }
      } else {
        // Non-aggregate computed projection: evaluate on the group's
        // first member (its value is constant over the group when it
        // only uses grouping variables).
        if (members.empty()) {
          row.push_back(kNoTerm);
          continue;
        }
        auto v = eval->EvalExpr(p.expr, solutions, members[0]);
        if (!v.ok()) {
          row.push_back(kNoTerm);
          continue;
        }
        value = *v;
      }
      row.push_back(dict->Intern(value));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<SolutionSet> Strabon::RunQuery(const SparqlQuery& query) {
  CandidateSets candidates;
  {
    obs::TraceSpan plan_span("plan");
    TELEIOS_ASSIGN_OR_RETURN(candidates, SpatialCandidates(query.where));
    plan_span.SetAttr("spatially_restricted_vars",
                      std::to_string(candidates.size()));
  }
  obs::TraceSpan exec_span("execute");
  SparqlEvaluator eval(&store_, &cache_,
                       candidates.empty() ? nullptr : &candidates);
  SolutionSet solutions;
  {
    obs::TraceSpan match_span("match");
    TELEIOS_ASSIGN_OR_RETURN(solutions, eval.EvalGroup(query.where));
    match_span.SetAttr("solutions", std::to_string(solutions.rows.size()));
  }

  if (query.is_ask) return solutions;

  // Aggregation / computed projections.
  bool has_aggregate = !query.group_by.empty();
  for (const SparqlProjection& p : query.computed) {
    if (ContainsAggregateExpr(p.expr)) has_aggregate = true;
  }
  bool already_projected = false;
  if (has_aggregate) {
    obs::TraceSpan agg_span("aggregate");
    TELEIOS_ASSIGN_OR_RETURN(
        solutions,
        AggregateSolutions(query, solutions, &eval, &store_.dict()));
    agg_span.SetAttr("groups", std::to_string(solutions.rows.size()));
    already_projected = true;
  } else if (!query.computed.empty()) {
    // Row-wise computed projections (BIND-like).
    for (const SparqlProjection& p : query.computed) {
      int col = solutions.AddVar(p.name);
      for (size_t r = 0; r < solutions.rows.size(); ++r) {
        auto v = eval.EvalExpr(p.expr, solutions, r);
        if (v.ok()) solutions.rows[r][col] = store_.dict().Intern(*v);
      }
    }
  }

  // ORDER BY.
  if (!query.order_by.empty()) {
    obs::TraceSpan sort_span("sort");
    std::vector<size_t> order(solutions.rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    // Pre-evaluate keys.
    std::vector<std::vector<Term>> keys(solutions.rows.size());
    for (size_t r = 0; r < solutions.rows.size(); ++r) {
      for (const SparqlOrderKey& k : query.order_by) {
        auto v = eval.EvalExpr(k.expr, solutions, r);
        keys[r].push_back(v.ok() ? *v : Term());
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < query.order_by.size(); ++k) {
        int c = SparqlEvaluator::CompareTerms(keys[a][k], keys[b][k]);
        if (c != 0) return query.order_by[k].descending ? c > 0 : c < 0;
      }
      return false;
    });
    std::vector<std::vector<TermId>> sorted;
    sorted.reserve(order.size());
    for (size_t i : order) sorted.push_back(std::move(solutions.rows[i]));
    solutions.rows = std::move(sorted);
  }

  // Projection (aggregation above already projects).
  if (!already_projected &&
      (!query.variables.empty() || !query.computed.empty())) {
    SolutionSet projected;
    projected.vars = query.variables;
    for (const SparqlProjection& p : query.computed) {
      projected.vars.push_back(p.name);
    }
    std::vector<int> idx;
    for (const std::string& v : projected.vars) {
      idx.push_back(solutions.VarIndex(v));
    }
    for (const auto& row : solutions.rows) {
      std::vector<TermId> r;
      r.reserve(idx.size());
      for (int i : idx) r.push_back(i < 0 ? kNoTerm : row[i]);
      projected.rows.push_back(std::move(r));
    }
    solutions = std::move(projected);
  }

  if (query.distinct) {
    std::unordered_set<std::string> seen;
    std::vector<std::vector<TermId>> unique;
    for (auto& row : solutions.rows) {
      std::string key;
      for (TermId id : row) key += std::to_string(id) + "|";
      if (seen.insert(key).second) unique.push_back(std::move(row));
    }
    solutions.rows = std::move(unique);
  }

  // OFFSET / LIMIT.
  if (query.offset > 0 || query.limit >= 0) {
    size_t begin = std::min(static_cast<size_t>(query.offset),
                            solutions.rows.size());
    size_t end = solutions.rows.size();
    if (query.limit >= 0) {
      end = std::min(end, begin + static_cast<size_t>(query.limit));
    }
    std::vector<std::vector<TermId>> window(
        solutions.rows.begin() + static_cast<long>(begin),
        solutions.rows.begin() + static_cast<long>(end));
    solutions.rows = std::move(window);
  }
  return solutions;
}

Result<SolutionSet> Strabon::Select(const std::string& sparql) {
  SparqlStatement stmt;
  {
    obs::TraceSpan parse_span("parse");
    TELEIOS_ASSIGN_OR_RETURN(stmt, ParseSparql(sparql));
  }
  const auto* query = std::get_if<SparqlQuery>(&stmt);
  if (query == nullptr) {
    return Status::InvalidArgument("expected a SELECT/ASK query");
  }
  return RunQuery(*query);
}

Result<storage::Table> Strabon::Query(const std::string& sparql) {
  obs::Count("teleios_strabon_queries_total");
  obs::TraceSpan query_span("sparql.query",
                            obs::MetricsRegistry::Global().GetHistogram(
                                "teleios_strabon_query_millis"));
  Result<SolutionSet> solutions = Select(sparql);
  if (!solutions.ok()) {
    obs::Count(obs::WithLabel("teleios_strabon_errors_total", "code",
                              StatusCodeName(solutions.status().code())));
    return solutions.status();
  }
  obs::Count("teleios_strabon_result_rows_total", solutions->rows.size());
  return solutions->ToTable(store_.dict());
}

Result<bool> Strabon::Ask(const std::string& sparql) {
  TELEIOS_ASSIGN_OR_RETURN(SolutionSet solutions, Select(sparql));
  return !solutions.rows.empty();
}

namespace {

/// Instantiates a template triple for one solution; false when a variable
/// is unbound (the instantiation is skipped, per SPARQL Update).
bool Instantiate(const TriplePatternAst& tmpl, const SolutionSet& solutions,
                 size_t row, rdf::TripleStore* store, Triple* out) {
  auto resolve = [&](const PatternNode& n, TermId* id) {
    if (!n.is_var) {
      *id = store->dict().Intern(n.term);
      return true;
    }
    int idx = solutions.VarIndex(n.var);
    if (idx < 0 || solutions.rows[row][idx] == kNoTerm) return false;
    *id = solutions.rows[row][idx];
    return true;
  };
  return resolve(tmpl.s, &out->s) && resolve(tmpl.p, &out->p) &&
         resolve(tmpl.o, &out->o);
}

}  // namespace

Result<size_t> Strabon::RunUpdate(const SparqlUpdate& update) {
  size_t affected = 0;
  switch (update.kind) {
    case SparqlUpdate::Kind::kInsertData: {
      for (const TriplePatternAst& t : update.insert_templates) {
        if (t.s.is_var || t.p.is_var || t.o.is_var) {
          return Status::InvalidArgument(
              "INSERT DATA requires ground triples");
        }
        store_.Add(t.s.term, t.p.term, t.o.term);
        ++affected;
      }
      return affected;
    }
    case SparqlUpdate::Kind::kDeleteData: {
      std::vector<Triple> to_delete;
      for (const TriplePatternAst& t : update.delete_templates) {
        if (t.s.is_var || t.p.is_var || t.o.is_var) {
          return Status::InvalidArgument(
              "DELETE DATA requires ground triples");
        }
        TermId s = store_.dict().Lookup(t.s.term);
        TermId p = store_.dict().Lookup(t.p.term);
        TermId o = store_.dict().Lookup(t.o.term);
        if (s == kNoTerm || p == kNoTerm || o == kNoTerm) continue;
        to_delete.push_back({s, p, o});
      }
      return store_.RemoveAll(std::move(to_delete));
    }
    case SparqlUpdate::Kind::kModify:
    case SparqlUpdate::Kind::kDeleteWhere: {
      TELEIOS_ASSIGN_OR_RETURN(CandidateSets candidates,
                               SpatialCandidates(update.where));
      SparqlEvaluator eval(&store_, &cache_,
                           candidates.empty() ? nullptr : &candidates);
      TELEIOS_ASSIGN_OR_RETURN(SolutionSet solutions,
                               eval.EvalGroup(update.where));
      std::vector<Triple> to_delete;
      std::vector<Triple> to_insert;
      for (size_t r = 0; r < solutions.rows.size(); ++r) {
        for (const TriplePatternAst& t : update.delete_templates) {
          Triple triple;
          if (Instantiate(t, solutions, r, &store_, &triple)) {
            to_delete.push_back(triple);
          }
        }
        for (const TriplePatternAst& t : update.insert_templates) {
          Triple triple;
          if (Instantiate(t, solutions, r, &store_, &triple)) {
            to_insert.push_back(triple);
          }
        }
      }
      affected += store_.RemoveAll(std::move(to_delete));
      for (const Triple& t : to_insert) {
        store_.AddEncoded(t);
        ++affected;
      }
      return affected;
    }
  }
  return Status::Internal("unhandled update kind");
}

Result<size_t> Strabon::Update(const std::string& sparql) {
  obs::Count("teleios_strabon_updates_total");
  SparqlStatement stmt;
  {
    obs::TraceSpan parse_span("parse");
    TELEIOS_ASSIGN_OR_RETURN(stmt, ParseSparql(sparql));
  }
  const auto* update = std::get_if<SparqlUpdate>(&stmt);
  if (update == nullptr) {
    return Status::InvalidArgument("expected an update statement");
  }
  obs::TraceSpan exec_span("execute");
  Result<size_t> affected = RunUpdate(*update);
  if (!affected.ok()) {
    obs::Count(obs::WithLabel("teleios_strabon_errors_total", "code",
                              StatusCodeName(affected.status().code())));
  }
  return affected;
}

std::string Strabon::ToTurtle() const {
  return rdf::WriteTurtle(store_, DefaultPrefixes());
}

Status Strabon::SaveTurtleFile(const std::string& path) const {
  return io::GetFileSystem()->WriteFileAtomic(path, ToTurtle());
}

}  // namespace teleios::strabon
