#include "table/column.h"

#include <cmath>
#include <unordered_set>

#include "common/fnv.h"
#include "common/logging.h"

namespace charles {

Column::Column(TypeKind type) : type_(type) {
  switch (type) {
    case TypeKind::kNull:
      data_ = std::monostate{};
      break;
    case TypeKind::kInt64:
      data_ = std::vector<int64_t>{};
      break;
    case TypeKind::kDouble:
      data_ = std::vector<double>{};
      break;
    case TypeKind::kString:
      data_ = std::vector<std::string>{};
      break;
    case TypeKind::kBool:
      data_ = std::vector<uint8_t>{};
      break;
  }
}

bool Column::IsNull(int64_t i) const {
  CHARLES_DCHECK(i >= 0 && i < length());
  return validity_[static_cast<size_t>(i)] == 0;
}

Value Column::GetValue(int64_t i) const {
  CHARLES_CHECK(i >= 0 && i < length()) << "row " << i << " out of range";
  if (IsNull(i)) return Value::Null();
  size_t idx = static_cast<size_t>(i);
  switch (type_) {
    case TypeKind::kNull:
      return Value::Null();
    case TypeKind::kInt64:
      return Value(std::get<std::vector<int64_t>>(data_)[idx]);
    case TypeKind::kDouble:
      return Value(std::get<std::vector<double>>(data_)[idx]);
    case TypeKind::kString:
      return Value(std::get<std::vector<std::string>>(data_)[idx]);
    case TypeKind::kBool:
      return Value(std::get<std::vector<uint8_t>>(data_)[idx] != 0);
  }
  return Value::Null();
}

void Column::AppendDefaultSlot() {
  switch (type_) {
    case TypeKind::kNull:
      break;
    case TypeKind::kInt64:
      std::get<std::vector<int64_t>>(data_).push_back(0);
      break;
    case TypeKind::kDouble:
      std::get<std::vector<double>>(data_).push_back(0.0);
      break;
    case TypeKind::kString:
      std::get<std::vector<std::string>>(data_).emplace_back();
      break;
    case TypeKind::kBool:
      std::get<std::vector<uint8_t>>(data_).push_back(0);
      break;
  }
}

void Column::AppendNull() {
  AppendDefaultSlot();
  validity_.push_back(0);
  ++null_count_;
}

Status Column::Append(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case TypeKind::kNull:
      return Status::TypeError("cannot append non-NULL value to null column");
    case TypeKind::kInt64:
      if (value.kind() != TypeKind::kInt64) {
        return Status::TypeError("expected int64, got " +
                                 std::string(TypeKindName(value.kind())));
      }
      std::get<std::vector<int64_t>>(data_).push_back(value.int64());
      break;
    case TypeKind::kDouble: {
      if (!IsNumeric(value.kind())) {
        return Status::TypeError("expected numeric, got " +
                                 std::string(TypeKindName(value.kind())));
      }
      CHARLES_ASSIGN_OR_RETURN(double d, value.AsDouble());
      std::get<std::vector<double>>(data_).push_back(d);
      break;
    }
    case TypeKind::kString:
      if (value.kind() != TypeKind::kString) {
        return Status::TypeError("expected string, got " +
                                 std::string(TypeKindName(value.kind())));
      }
      std::get<std::vector<std::string>>(data_).push_back(value.str());
      break;
    case TypeKind::kBool:
      if (value.kind() != TypeKind::kBool) {
        return Status::TypeError("expected bool, got " +
                                 std::string(TypeKindName(value.kind())));
      }
      std::get<std::vector<uint8_t>>(data_).push_back(value.boolean() ? 1 : 0);
      break;
  }
  validity_.push_back(1);
  return Status::OK();
}

Status Column::Set(int64_t i, const Value& value) {
  if (i < 0 || i >= length()) {
    return Status::OutOfRange("Set: row " + std::to_string(i) + " out of range");
  }
  size_t idx = static_cast<size_t>(i);
  if (value.is_null()) {
    if (validity_[idx] != 0) ++null_count_;
    validity_[idx] = 0;
    return Status::OK();
  }
  switch (type_) {
    case TypeKind::kNull:
      return Status::TypeError("cannot set non-NULL value in null column");
    case TypeKind::kInt64:
      if (value.kind() != TypeKind::kInt64) {
        return Status::TypeError("expected int64, got " +
                                 std::string(TypeKindName(value.kind())));
      }
      std::get<std::vector<int64_t>>(data_)[idx] = value.int64();
      break;
    case TypeKind::kDouble: {
      if (!IsNumeric(value.kind())) {
        return Status::TypeError("expected numeric, got " +
                                 std::string(TypeKindName(value.kind())));
      }
      CHARLES_ASSIGN_OR_RETURN(double d, value.AsDouble());
      std::get<std::vector<double>>(data_)[idx] = d;
      break;
    }
    case TypeKind::kString:
      if (value.kind() != TypeKind::kString) {
        return Status::TypeError("expected string, got " +
                                 std::string(TypeKindName(value.kind())));
      }
      std::get<std::vector<std::string>>(data_)[idx] = value.str();
      break;
    case TypeKind::kBool:
      if (value.kind() != TypeKind::kBool) {
        return Status::TypeError("expected bool, got " +
                                 std::string(TypeKindName(value.kind())));
      }
      std::get<std::vector<uint8_t>>(data_)[idx] = value.boolean() ? 1 : 0;
      break;
  }
  if (validity_[idx] == 0) --null_count_;
  validity_[idx] = 1;
  return Status::OK();
}

Result<std::vector<double>> Column::ToDoubles() const {
  return GatherDoubles(RowSet::All(length()));
}

Result<std::vector<double>> Column::GatherDoubles(const RowSet& rows) const {
  if (!IsNumeric(type_)) {
    return Status::TypeError("column of type " + std::string(TypeKindName(type_)) +
                             " has no numeric view");
  }
  std::vector<double> out;
  out.reserve(static_cast<size_t>(rows.size()));
  for (int64_t row : rows) {
    if (row < 0 || row >= length()) {
      return Status::OutOfRange("GatherDoubles: row " + std::to_string(row));
    }
    if (IsNull(row)) {
      return Status::InvalidArgument("GatherDoubles: NULL at row " + std::to_string(row));
    }
    if (type_ == TypeKind::kInt64) {
      out.push_back(static_cast<double>(
          std::get<std::vector<int64_t>>(data_)[static_cast<size_t>(row)]));
    } else {
      out.push_back(std::get<std::vector<double>>(data_)[static_cast<size_t>(row)]);
    }
  }
  return out;
}

int64_t Column::FirstNonFinite() const {
  if (type_ != TypeKind::kDouble) return -1;
  const auto& values = std::get<std::vector<double>>(data_);
  for (size_t i = 0; i < values.size(); ++i) {
    if (validity_[i] != 0 && !std::isfinite(values[i])) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

Column Column::Take(const RowSet& rows) const {
  Column out(type_);
  for (int64_t row : rows) {
    // GetValue bounds-checks; Append cannot fail since types match by
    // construction.
    Status s = out.Append(GetValue(row));
    CHARLES_CHECK_OK(s);
  }
  return out;
}

Result<Column> Column::CastTo(TypeKind target_type) const {
  if (target_type == type_) return *this;
  if (!(type_ == TypeKind::kInt64 && target_type == TypeKind::kDouble)) {
    return Status::TypeError("unsupported cast " + std::string(TypeKindName(type_)) +
                             " -> " + std::string(TypeKindName(target_type)));
  }
  Column out(TypeKind::kDouble);
  for (int64_t i = 0; i < length(); ++i) {
    if (IsNull(i)) {
      out.AppendNull();
    } else {
      CHARLES_RETURN_NOT_OK(out.Append(GetValue(i)));  // int64 widens
    }
  }
  return out;
}

int64_t Column::CountDistinct() const {
  std::unordered_set<Value, ValueHash> seen;
  for (int64_t i = 0; i < length(); ++i) {
    if (!IsNull(i)) seen.insert(GetValue(i));
  }
  return static_cast<int64_t>(seen.size());
}

std::vector<Value> Column::DistinctValues() const {
  std::unordered_set<Value, ValueHash> seen;
  std::vector<Value> out;
  for (int64_t i = 0; i < length(); ++i) {
    if (IsNull(i)) continue;
    Value v = GetValue(i);
    if (seen.insert(v).second) out.push_back(std::move(v));
  }
  return out;
}

bool Column::Equals(const Column& other) const {
  if (type_ != other.type_ || length() != other.length()) return false;
  for (int64_t i = 0; i < length(); ++i) {
    if (IsNull(i) != other.IsNull(i)) return false;
    if (!IsNull(i) && GetValue(i) != other.GetValue(i)) return false;
  }
  return true;
}

uint64_t Column::HashInto(uint64_t h) const {
  const int type = static_cast<int>(type_);
  h = FnvMixBytes(h, &type, sizeof(type));
  h = FnvMixBytes(h, validity_.data(), validity_.size());
  switch (type_) {
    case TypeKind::kInt64: {
      const auto& values = std::get<std::vector<int64_t>>(data_);
      return FnvMixBytes(h, values.data(), values.size() * sizeof(int64_t));
    }
    case TypeKind::kDouble:
      return FnvMixDoubles(h, std::get<std::vector<double>>(data_));
    case TypeKind::kString:
      for (const std::string& value : std::get<std::vector<std::string>>(data_)) {
        h = FnvMixString(h, value);
      }
      return h;
    case TypeKind::kBool: {
      const auto& values = std::get<std::vector<uint8_t>>(data_);
      return FnvMixBytes(h, values.data(), values.size());
    }
    default:
      return h;
  }
}

}  // namespace charles
