#include "relational/evaluator.h"

#include <cmath>

#include "common/strings.h"

namespace teleios::relational {

namespace {

bool BothInts(const Value& a, const Value& b) {
  return a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64;
}

Result<Value> Arithmetic(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value();
  if (op == BinaryOp::kAdd && lhs.type() == ValueType::kString &&
      rhs.type() == ValueType::kString) {
    return Value(lhs.AsString() + rhs.AsString());
  }
  if (BothInts(lhs, rhs)) {
    int64_t a = lhs.AsInt64();
    int64_t b = rhs.AsInt64();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(a + b);
      case BinaryOp::kSub:
        return Value(a - b);
      case BinaryOp::kMul:
        return Value(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        return Value(a % b);
      default:
        break;
    }
  }
  TELEIOS_ASSIGN_OR_RETURN(double a, lhs.ToDouble());
  TELEIOS_ASSIGN_OR_RETURN(double b, rhs.ToDouble());
  switch (op) {
    case BinaryOp::kAdd:
      return Value(a + b);
    case BinaryOp::kSub:
      return Value(a - b);
    case BinaryOp::kMul:
      return Value(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Status::InvalidArgument("division by zero");
      return Value(a / b);
    case BinaryOp::kMod:
      if (b == 0.0) return Status::InvalidArgument("modulo by zero");
      return Value(std::fmod(a, b));
    default:
      break;
  }
  return Status::Internal("bad arithmetic op");
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard matching with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> ApplyBinary(BinaryOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return Arithmetic(op, lhs, rhs);
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lhs.is_null() || rhs.is_null()) return Value();
      // IEEE rules, as in the vectorized kernel: NaN is neither equal
      // to, below nor above anything (Compare would sort it last).
      auto is_nan = [](const Value& v) {
        return v.type() == ValueType::kFloat64 && std::isnan(v.AsFloat64());
      };
      if (is_nan(lhs) || is_nan(rhs)) return Value(op == BinaryOp::kNe);
      int c = lhs.Compare(rhs);
      switch (op) {
        case BinaryOp::kEq:
          return Value(c == 0);
        case BinaryOp::kNe:
          return Value(c != 0);
        case BinaryOp::kLt:
          return Value(c < 0);
        case BinaryOp::kLe:
          return Value(c <= 0);
        case BinaryOp::kGt:
          return Value(c > 0);
        default:
          return Value(c >= 0);
      }
    }
    case BinaryOp::kAnd:
      return Value(lhs.Truthy() && rhs.Truthy());
    case BinaryOp::kOr:
      return Value(lhs.Truthy() || rhs.Truthy());
    case BinaryOp::kLike: {
      if (lhs.is_null() || rhs.is_null()) return Value();
      if (lhs.type() != ValueType::kString ||
          rhs.type() != ValueType::kString) {
        return Status::TypeError("LIKE requires string operands");
      }
      return Value(LikeMatch(lhs.AsString(), rhs.AsString()));
    }
  }
  return Status::Internal("bad binary op");
}

Result<Value> ApplyFunction(const std::string& name,
                            const std::vector<Value>& args) {
  auto need = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::InvalidArgument(name + " expects " +
                                     std::to_string(n) + " argument(s)");
    }
    return Status::OK();
  };
  if (name == "isnull") {
    TELEIOS_RETURN_IF_ERROR(need(1));
    return Value(args[0].is_null());
  }
  if (name == "coalesce") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value();
  }
  if (name == "if") {
    TELEIOS_RETURN_IF_ERROR(need(3));
    return args[0].Truthy() ? args[1] : args[2];
  }
  if (name == "least" || name == "greatest") {
    if (args.empty()) return Status::InvalidArgument(name + " needs args");
    Value best = args[0];
    for (const Value& v : args) {
      if (v.is_null()) return Value();
      bool better = name == "least" ? v.Compare(best) < 0 : v.Compare(best) > 0;
      if (better) best = v;
    }
    return best;
  }
  // Remaining functions: NULL in -> NULL out.
  for (const Value& v : args) {
    if (v.is_null()) return Value();
  }
  if (name == "abs") {
    TELEIOS_RETURN_IF_ERROR(need(1));
    if (args[0].type() == ValueType::kInt64) {
      return Value(std::abs(args[0].AsInt64()));
    }
    TELEIOS_ASSIGN_OR_RETURN(double x, args[0].ToDouble());
    return Value(std::fabs(x));
  }
  if (name == "sqrt" || name == "ln" || name == "exp" || name == "floor" ||
      name == "ceil" || name == "round" || name == "sin" || name == "cos") {
    TELEIOS_RETURN_IF_ERROR(need(1));
    TELEIOS_ASSIGN_OR_RETURN(double x, args[0].ToDouble());
    if (name == "sqrt") {
      if (x < 0) return Status::InvalidArgument("sqrt of negative");
      return Value(std::sqrt(x));
    }
    if (name == "ln") {
      if (x <= 0) return Status::InvalidArgument("ln of non-positive");
      return Value(std::log(x));
    }
    if (name == "exp") return Value(std::exp(x));
    if (name == "sin") return Value(std::sin(x));
    if (name == "cos") return Value(std::cos(x));
    if (name == "floor") return Value(static_cast<int64_t>(std::floor(x)));
    if (name == "ceil") return Value(static_cast<int64_t>(std::ceil(x)));
    return Value(static_cast<int64_t>(std::llround(x)));
  }
  if (name == "pow") {
    TELEIOS_RETURN_IF_ERROR(need(2));
    TELEIOS_ASSIGN_OR_RETURN(double x, args[0].ToDouble());
    TELEIOS_ASSIGN_OR_RETURN(double y, args[1].ToDouble());
    return Value(std::pow(x, y));
  }
  if (name == "length") {
    TELEIOS_RETURN_IF_ERROR(need(1));
    if (args[0].type() != ValueType::kString) {
      return Status::TypeError("length expects a string");
    }
    return Value(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (name == "lower" || name == "upper") {
    TELEIOS_RETURN_IF_ERROR(need(1));
    if (args[0].type() != ValueType::kString) {
      return Status::TypeError(name + " expects a string");
    }
    std::string s = args[0].AsString();
    for (char& c : s) {
      c = name == "lower" ? static_cast<char>(std::tolower(c))
                          : static_cast<char>(std::toupper(c));
    }
    return Value(std::move(s));
  }
  if (name == "substr") {
    TELEIOS_RETURN_IF_ERROR(need(3));
    if (args[0].type() != ValueType::kString) {
      return Status::TypeError("substr expects a string");
    }
    TELEIOS_ASSIGN_OR_RETURN(int64_t start, args[1].ToInt64());
    TELEIOS_ASSIGN_OR_RETURN(int64_t len, args[2].ToInt64());
    const std::string& s = args[0].AsString();
    if (start < 1) start = 1;  // SQL 1-based
    if (static_cast<size_t>(start) > s.size() || len <= 0) {
      return Value(std::string());
    }
    return Value(s.substr(static_cast<size_t>(start - 1),
                          static_cast<size_t>(len)));
  }
  if (name == "concat") {
    std::string out;
    for (const Value& v : args) out += v.ToString();
    return Value(std::move(out));
  }
  return Status::NotFound("unknown function '" + name + "'");
}

Result<Value> Evaluate(const ExprPtr& expr, const ColumnResolver& resolver) {
  switch (expr->kind) {
    case ExprKind::kLiteral:
      return expr->literal;
    case ExprKind::kColumnRef:
      return resolver(expr->column);
    case ExprKind::kUnary: {
      TELEIOS_ASSIGN_OR_RETURN(Value v, Evaluate(expr->children[0], resolver));
      if (expr->unary_op == UnaryOp::kNot) return Value(!v.Truthy());
      if (v.is_null()) return Value();
      if (v.type() == ValueType::kInt64) return Value(-v.AsInt64());
      TELEIOS_ASSIGN_OR_RETURN(double x, v.ToDouble());
      return Value(-x);
    }
    case ExprKind::kBinary: {
      TELEIOS_ASSIGN_OR_RETURN(Value lhs,
                               Evaluate(expr->children[0], resolver));
      // Short-circuit AND/OR.
      if (expr->binary_op == BinaryOp::kAnd && !lhs.Truthy()) {
        return Value(false);
      }
      if (expr->binary_op == BinaryOp::kOr && lhs.Truthy()) {
        return Value(true);
      }
      TELEIOS_ASSIGN_OR_RETURN(Value rhs,
                               Evaluate(expr->children[1], resolver));
      return ApplyBinary(expr->binary_op, lhs, rhs);
    }
    case ExprKind::kFunction: {
      std::vector<Value> args;
      args.reserve(expr->children.size());
      for (const ExprPtr& c : expr->children) {
        TELEIOS_ASSIGN_OR_RETURN(Value v, Evaluate(c, resolver));
        args.push_back(std::move(v));
      }
      return ApplyFunction(expr->function, args);
    }
  }
  return Status::Internal("bad expression kind");
}

Result<int> BoundExpr::BindNode(const ExprPtr& expr,
                                const storage::Table& table) {
  Node node;
  node.kind = expr->kind;
  node.literal = expr->literal;
  node.unary_op = expr->unary_op;
  node.binary_op = expr->binary_op;
  node.function = expr->function;
  if (expr->kind == ExprKind::kColumnRef) {
    int idx = table.schema().FieldIndex(expr->column);
    if (idx < 0) {
      // Try without "qualifier." prefix.
      size_t dot = expr->column.find('.');
      if (dot != std::string::npos) {
        idx = table.schema().FieldIndex(expr->column.substr(dot + 1));
      }
    }
    if (idx < 0) {
      return Status::NotFound("unknown column '" + expr->column + "'");
    }
    node.column_index = idx;
  }
  for (const ExprPtr& c : expr->children) {
    TELEIOS_ASSIGN_OR_RETURN(int ci, BindNode(c, table));
    node.children.push_back(ci);
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size() - 1);
}

Result<BoundExpr> BoundExpr::Bind(const ExprPtr& expr,
                                  const storage::Table& table) {
  BoundExpr bound;
  TELEIOS_ASSIGN_OR_RETURN(bound.root_, bound.BindNode(expr, table));
  return bound;
}

Result<Value> BoundExpr::EvalNode(int idx, const storage::Table& table,
                                  size_t row) const {
  const Node& node = nodes_[idx];
  switch (node.kind) {
    case ExprKind::kLiteral:
      return node.literal;
    case ExprKind::kColumnRef:
      return table.Get(row, node.column_index);
    case ExprKind::kUnary: {
      TELEIOS_ASSIGN_OR_RETURN(Value v, EvalNode(node.children[0], table, row));
      if (node.unary_op == UnaryOp::kNot) return Value(!v.Truthy());
      if (v.is_null()) return Value();
      if (v.type() == ValueType::kInt64) return Value(-v.AsInt64());
      TELEIOS_ASSIGN_OR_RETURN(double x, v.ToDouble());
      return Value(-x);
    }
    case ExprKind::kBinary: {
      TELEIOS_ASSIGN_OR_RETURN(Value lhs,
                               EvalNode(node.children[0], table, row));
      if (node.binary_op == BinaryOp::kAnd && !lhs.Truthy()) {
        return Value(false);
      }
      if (node.binary_op == BinaryOp::kOr && lhs.Truthy()) {
        return Value(true);
      }
      TELEIOS_ASSIGN_OR_RETURN(Value rhs,
                               EvalNode(node.children[1], table, row));
      return ApplyBinary(node.binary_op, lhs, rhs);
    }
    case ExprKind::kFunction: {
      std::vector<Value> args;
      args.reserve(node.children.size());
      for (int c : node.children) {
        TELEIOS_ASSIGN_OR_RETURN(Value v, EvalNode(c, table, row));
        args.push_back(std::move(v));
      }
      return ApplyFunction(node.function, args);
    }
  }
  return Status::Internal("bad bound expression kind");
}

Result<Value> BoundExpr::Eval(const storage::Table& table, size_t row) const {
  return EvalNode(root_, table, row);
}

}  // namespace teleios::relational
