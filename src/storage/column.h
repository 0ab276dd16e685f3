#ifndef TELEIOS_STORAGE_COLUMN_H_
#define TELEIOS_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/dictionary.h"

namespace teleios::storage {

/// Physical column types. Strings are dictionary-encoded (int32 codes into
/// a per-column Dictionary), the MonetDB BAT-tail idiom.
enum class ColumnType {
  kBool,
  kInt64,
  kFloat64,
  kString,
};

const char* ColumnTypeName(ColumnType t);

/// Maps a scalar ValueType to its column storage type.
Result<ColumnType> ColumnTypeForValue(ValueType t);
/// Maps a column type to the scalar type its cells produce.
ValueType ValueTypeForColumn(ColumnType t);

/// Row indices selected by a predicate — MonetDB candidate-list idiom.
using SelectionVector = std::vector<uint32_t>;

/// A typed, nullable, append-only column of values (the "tail" of a BAT;
/// the "head" is the implicit dense row id).
class Column {
 public:
  explicit Column(ColumnType type);

  ColumnType type() const { return type_; }
  size_t size() const { return validity_.size(); }

  /// Appends a typed value; Value() appends NULL. Numeric values are
  /// coerced (int<->float); anything else is a TypeError.
  Status Append(const Value& v);

  /// Fast typed appends (no coercion, marks valid).
  void AppendBool(bool v);
  void AppendInt64(int64_t v);
  void AppendFloat64(double v);
  void AppendString(std::string_view v);
  void AppendNull();

  bool IsNull(size_t row) const { return !validity_[row]; }

  /// Generic accessor; returns Value() for NULL.
  Value Get(size_t row) const;

  /// Typed accessors; require valid row of the matching type.
  bool GetBool(size_t row) const { return bools_[row] != 0; }
  int64_t GetInt64(size_t row) const { return ints_[row]; }
  double GetFloat64(size_t row) const { return doubles_[row]; }
  const std::string& GetString(size_t row) const {
    return dict_->At(codes_[row]);
  }
  /// Dictionary code of a string cell (kInvalidCode semantics not used for
  /// valid rows).
  int32_t GetStringCode(size_t row) const { return codes_[row]; }

  const Dictionary& dict() const { return *dict_; }
  Dictionary& dict() { return *dict_; }

  /// Raw typed storage (for vectorized operators / benchmarks). Null
  /// rows hold a zero (kInvalidCode for strings) in the typed vector.
  const std::vector<uint8_t>& validity() const { return validity_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int32_t>& codes() const { return codes_; }

  /// Mutable typed storage — used by the array engine, whose cells are
  /// updatable in place (unlike append-only relational columns).
  std::vector<int64_t>& mutable_ints() { return ints_; }
  std::vector<double>& mutable_doubles() { return doubles_; }

  /// Overwrites a cell with a (coercible) value or NULL.
  Status Set(size_t row, const Value& v);

  /// Returns a new column holding rows listed in `sel`, typed: values
  /// and string codes are copied, and each distinct string is interned
  /// once into the result's own dictionary (first-seen order).
  Column Take(const SelectionVector& sel) const;

  /// Approximate heap usage in bytes.
  size_t MemoryUsage() const;

  void Reserve(size_t n);

 private:
  ColumnType type_;
  std::vector<uint8_t> validity_;  // 1 = valid
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<int32_t> codes_;
  std::shared_ptr<Dictionary> dict_;  // only for kString
};

}  // namespace teleios::storage

#endif  // TELEIOS_STORAGE_COLUMN_H_
