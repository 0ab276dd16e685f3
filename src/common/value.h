#ifndef TELEIOS_COMMON_VALUE_H_
#define TELEIOS_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace teleios {

/// Scalar type tags shared by the relational engine, SciQL and SPARQL
/// expression evaluation.
enum class ValueType {
  kNull = 0,
  kBool,
  kInt64,
  kFloat64,
  kString,
};

const char* ValueTypeName(ValueType t);

/// A dynamically-typed scalar. SQL NULL is `Value()` (kNull).
class Value {
 public:
  Value() : repr_(std::monostate{}) {}
  explicit Value(bool v) : repr_(v) {}
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(int v) : repr_(static_cast<int64_t>(v)) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}
  explicit Value(const char* v) : repr_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    switch (repr_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kBool;
      case 2:
        return ValueType::kInt64;
      case 3:
        return ValueType::kFloat64;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; require the matching type.
  bool AsBool() const { return std::get<bool>(repr_); }
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsFloat64() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// Numeric widening: int64 or float64 as double.
  Result<double> ToDouble() const;
  /// Coercion to int64 (from bool/int64; float64 truncates).
  Result<int64_t> ToInt64() const;
  /// Effective boolean value (SPARQL-style: false for 0, "", null).
  bool Truthy() const;

  /// Display form, "NULL" for null.
  std::string ToString() const;

  /// A total order for sorting: null sorts first. Numeric types compare
  /// numerically across int/float, with NaN after every number and
  /// equal to NaN. (SQL comparison operators on doubles follow IEEE
  /// instead: NaN compares false against everything.)
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> repr_;
};

}  // namespace teleios

#endif  // TELEIOS_COMMON_VALUE_H_
