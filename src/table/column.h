#ifndef CHARLES_TABLE_COLUMN_H_
#define CHARLES_TABLE_COLUMN_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "table/row_set.h"
#include "types/data_type.h"
#include "types/value.h"

namespace charles {

/// \brief A typed column: contiguous typed storage plus a validity vector.
///
/// Storage is columnar (one std::vector of the physical type) with a parallel
/// byte-per-row validity vector, so numeric kernels (regression, clustering,
/// diffing) can run over raw doubles without per-cell variant unboxing.
///
/// Type discipline: appends must match the column type, with one documented
/// coercion — int64 values append into double columns (CSV-style widening).
class Column {
 public:
  /// An empty column of the given type. kNull columns hold only NULLs.
  explicit Column(TypeKind type);

  TypeKind type() const { return type_; }
  int64_t length() const { return static_cast<int64_t>(validity_.size()); }
  bool IsNull(int64_t i) const;
  int64_t null_count() const { return null_count_; }

  /// Cell as a dynamically typed Value (NULL if invalid).
  Value GetValue(int64_t i) const;

  /// \name Append paths.
  /// @{
  /// Type-checked append; int64 widens into double columns, anything else
  /// mismatched is a TypeError. NULL appends are always accepted.
  Status Append(const Value& value);
  void AppendNull();
  /// @}

  /// Overwrites one cell, same typing rules as Append.
  Status Set(int64_t i, const Value& value);

  /// \brief Numeric view of the column as doubles.
  ///
  /// Fails with TypeError for non-numeric columns and with InvalidArgument if
  /// any row is NULL (callers choose their own NULL policy before fitting).
  Result<std::vector<double>> ToDoubles() const;

  /// Numeric view restricted to a RowSet (partition-local regression input).
  Result<std::vector<double>> GatherDoubles(const RowSet& rows) const;

  /// New column with only the given rows, in RowSet order.
  Column Take(const RowSet& rows) const;

  /// \brief Copy of the column converted to another type.
  ///
  /// Supported conversions: identity, and the int64 → double widening (the
  /// CSV reader may infer int64 for a snapshot whose counterpart holds
  /// doubles). Anything else is a TypeError.
  Result<Column> CastTo(TypeKind target_type) const;

  /// The first non-NULL row holding a NaN or ±inf (double columns only),
  /// or -1 when every cell is finite.
  int64_t FirstNonFinite() const;

  /// Number of distinct non-NULL values.
  int64_t CountDistinct() const;

  /// Distinct non-NULL values in first-appearance order.
  std::vector<Value> DistinctValues() const;

  bool Equals(const Column& other) const;

  /// Folds the column's type, validity and stored values into the running
  /// FNV-1a hash `h` (common/fnv.h) and returns the result. Cache keys use
  /// it to cover a column's exact contents.
  uint64_t HashInto(uint64_t h) const;

 private:
  using Storage = std::variant<std::monostate,            // kNull
                               std::vector<int64_t>,      // kInt64
                               std::vector<double>,       // kDouble
                               std::vector<std::string>,  // kString
                               std::vector<uint8_t>>;     // kBool

  void AppendDefaultSlot();

  TypeKind type_;
  Storage data_;
  std::vector<uint8_t> validity_;  // 1 = valid, 0 = NULL
  int64_t null_count_ = 0;
};

}  // namespace charles

#endif  // CHARLES_TABLE_COLUMN_H_
