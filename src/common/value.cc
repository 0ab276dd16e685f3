#include "common/value.h"

#include <cmath>

#include "common/strings.h"

namespace teleios {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "BIGINT";
    case ValueType::kFloat64:
      return "DOUBLE";
    case ValueType::kString:
      return "VARCHAR";
  }
  return "?";
}

Result<double> Value::ToDouble() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kFloat64:
      return AsFloat64();
    case ValueType::kBool:
      return AsBool() ? 1.0 : 0.0;
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               ValueTypeName(type()) + " to DOUBLE");
  }
}

Result<int64_t> Value::ToInt64() const {
  switch (type()) {
    case ValueType::kInt64:
      return AsInt64();
    case ValueType::kFloat64:
      return static_cast<int64_t>(AsFloat64());
    case ValueType::kBool:
      return static_cast<int64_t>(AsBool());
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               ValueTypeName(type()) + " to BIGINT");
  }
}

bool Value::Truthy() const {
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kBool:
      return AsBool();
    case ValueType::kInt64:
      return AsInt64() != 0;
    case ValueType::kFloat64:
      return AsFloat64() != 0.0;
    case ValueType::kString:
      return !AsString().empty();
  }
  return false;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kFloat64: {
      std::string s = StrFormat("%.10g", AsFloat64());
      return s;
    }
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

namespace {
bool IsNumeric(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kFloat64 ||
         t == ValueType::kBool;
}
}  // namespace

int Value::Compare(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  if (a == ValueType::kNull || b == ValueType::kNull) {
    if (a == b) return 0;
    return a == ValueType::kNull ? -1 : 1;
  }
  if (IsNumeric(a) && IsNumeric(b)) {
    if (a == ValueType::kInt64 && b == ValueType::kInt64) {
      int64_t x = AsInt64();
      int64_t y = other.AsInt64();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = ToDouble().value_or(0.0);
    double y = other.ToDouble().value_or(0.0);
    if (x < y) return -1;
    if (x > y) return 1;
    // Equal, or unordered: NaN sorts after every number and equals NaN.
    return static_cast<int>(std::isnan(x)) - static_cast<int>(std::isnan(y));
  }
  if (a == ValueType::kString && b == ValueType::kString) {
    return AsString().compare(other.AsString()) < 0
               ? -1
               : (AsString() == other.AsString() ? 0 : 1);
  }
  // Heterogeneous non-numeric: order by type tag for a stable total order.
  int ta = static_cast<int>(a);
  int tb = static_cast<int>(b);
  return ta < tb ? -1 : (ta > tb ? 1 : 0);
}

}  // namespace teleios
