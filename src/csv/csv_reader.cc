#include "csv/csv_reader.h"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/string_util.h"
#include "table/table_builder.h"

namespace charles {

namespace {

bool IsNullToken(const std::string& cell, const CsvReadOptions& options) {
  for (const std::string& token : options.null_tokens) {
    if (cell == token) return true;
  }
  return false;
}

/// ParseDouble plus the non-finite spellings `nan`, `inf`, `+inf` and `-inf`
/// (any case). A column holding them then infers as numeric, so the engine
/// can name the bad cell instead of failing on a schema mismatch.
std::optional<double> ParseCsvDouble(const std::string& cell) {
  if (std::optional<double> value = ParseDouble(cell)) return value;
  std::string_view text = TrimView(cell);
  if (EqualsIgnoreCase(text, "nan")) return std::numeric_limits<double>::quiet_NaN();
  const bool negative = !text.empty() && text.front() == '-';
  if (!text.empty() && (text.front() == '-' || text.front() == '+')) {
    text.remove_prefix(1);
  }
  if (!EqualsIgnoreCase(text, "inf")) return std::nullopt;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return negative ? -kInf : kInf;
}

/// Column type lattice walked during inference: int64 -> double -> bool ->
/// string. A column starts at the narrowest type and widens as cells fail to
/// parse.
TypeKind InferColumnType(const std::vector<std::vector<std::string>>& records,
                         size_t column, size_t first_data_row,
                         const CsvReadOptions& options) {
  bool all_int = true;
  bool all_double = true;
  bool all_bool = true;
  bool saw_value = false;
  for (size_t r = first_data_row; r < records.size(); ++r) {
    const std::string& cell = records[r][column];
    if (IsNullToken(cell, options)) continue;
    saw_value = true;
    if (all_int && !ParseInt64(cell).has_value()) all_int = false;
    if (all_double && !ParseCsvDouble(cell).has_value()) all_double = false;
    if (all_bool && !ParseBool(cell).has_value()) all_bool = false;
    if (!all_int && !all_double && !all_bool) return TypeKind::kString;
  }
  if (!saw_value) return TypeKind::kString;  // all-NULL column: keep it generic
  if (all_int) return TypeKind::kInt64;
  if (all_double) return TypeKind::kDouble;
  if (all_bool) return TypeKind::kBool;
  return TypeKind::kString;
}

Result<Value> CellToValue(const std::string& cell, TypeKind type,
                          const CsvReadOptions& options, size_t record_number) {
  if (IsNullToken(cell, options)) return Value::Null();
  switch (type) {
    case TypeKind::kInt64: {
      auto v = ParseInt64(cell);
      if (!v) {
        return Status::InvalidArgument("record " + std::to_string(record_number) +
                                       ": '" + cell + "' is not an int64");
      }
      return Value(*v);
    }
    case TypeKind::kDouble: {
      auto v = ParseCsvDouble(cell);
      if (!v) {
        return Status::InvalidArgument("record " + std::to_string(record_number) +
                                       ": '" + cell + "' is not a double");
      }
      return Value(*v);
    }
    case TypeKind::kBool: {
      auto v = ParseBool(cell);
      if (!v) {
        return Status::InvalidArgument("record " + std::to_string(record_number) +
                                       ": '" + cell + "' is not a bool");
      }
      return Value(*v);
    }
    default:
      return Value(cell);
  }
}

}  // namespace

Result<std::vector<std::vector<std::string>>> CsvReader::ParseRecords(
    std::string_view text, const CsvReadOptions& options) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> current_record;
  std::string current_cell;
  bool in_quotes = false;
  bool cell_was_quoted = false;
  bool record_has_content = false;

  auto finish_cell = [&]() {
    if (options.trim_cells && !cell_was_quoted) {
      current_record.push_back(Trim(current_cell));
    } else {
      current_record.push_back(current_cell);
    }
    current_cell.clear();
    cell_was_quoted = false;
  };
  auto finish_record = [&]() {
    finish_cell();
    records.push_back(std::move(current_record));
    current_record.clear();
    record_has_content = false;
  };

  size_t i = 0;
  size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == options.quote) {
        if (i + 1 < n && text[i + 1] == options.quote) {
          current_cell += options.quote;  // escaped quote
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      current_cell += c;
      ++i;
      continue;
    }
    if (c == options.quote && current_cell.empty() && !cell_was_quoted) {
      in_quotes = true;
      cell_was_quoted = true;
      record_has_content = true;
      ++i;
      continue;
    }
    if (c == options.delimiter) {
      finish_cell();
      record_has_content = true;
      ++i;
      continue;
    }
    if (c == '\r') {
      if (i + 1 < n && text[i + 1] == '\n') ++i;
      if (record_has_content || !current_cell.empty() || !current_record.empty()) {
        finish_record();
      }
      ++i;
      continue;
    }
    if (c == '\n') {
      if (record_has_content || !current_cell.empty() || !current_record.empty()) {
        finish_record();
      }
      ++i;
      continue;
    }
    current_cell += c;
    record_has_content = true;
    ++i;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field at end of input");
  }
  if (record_has_content || !current_record.empty() || !current_cell.empty()) {
    finish_record();
  }
  return records;
}

Result<Table> CsvReader::ReadString(std::string_view text, const CsvReadOptions& options) {
  CHARLES_ASSIGN_OR_RETURN(auto records, ParseRecords(text, options));
  if (records.empty()) return Status::InvalidArgument("empty CSV input");

  size_t width = records[0].size();
  for (size_t r = 0; r < records.size(); ++r) {
    if (records[r].size() != width) {
      return Status::InvalidArgument("record " + std::to_string(r + 1) + " has " +
                                     std::to_string(records[r].size()) +
                                     " fields, expected " + std::to_string(width));
    }
  }

  std::vector<std::string> names;
  size_t first_data_row = 0;
  if (options.has_header) {
    names = records[0];
    first_data_row = 1;
  } else {
    for (size_t c = 0; c < width; ++c) names.push_back("f" + std::to_string(c));
  }

  std::vector<Field> fields;
  for (size_t c = 0; c < width; ++c) {
    TypeKind type = options.infer_types
                        ? InferColumnType(records, c, first_data_row, options)
                        : TypeKind::kString;
    fields.push_back(Field{names[c], type, /*nullable=*/true});
  }
  CHARLES_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));

  TableBuilder builder(schema);
  for (size_t r = first_data_row; r < records.size(); ++r) {
    std::vector<Value> row;
    row.reserve(width);
    for (size_t c = 0; c < width; ++c) {
      CHARLES_ASSIGN_OR_RETURN(
          Value v, CellToValue(records[r][c], schema.field(static_cast<int>(c)).type,
                               options, r + 1));
      row.push_back(std::move(v));
    }
    CHARLES_RETURN_NOT_OK(builder.AppendRow(row));
  }
  return builder.Finish();
}

Result<Table> CsvReader::ReadFile(const std::string& path, const CsvReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("error while reading '" + path + "'");
  return ReadString(buffer.str(), options);
}

}  // namespace charles
