#include "data/column.h"

#include <utility>

#include "base/check.h"
#include "base/string_util.h"

namespace fairlaw::data {

std::string CellToString(const Cell& cell) {
  switch (cell.index()) {
    case 0:
      return FormatDouble(std::get<double>(cell), 6);
    case 1:
      return std::to_string(std::get<int64_t>(cell));
    case 2:
      return std::get<std::string>(cell);
    case 3:
      return std::get<bool>(cell) ? "true" : "false";
  }
  return "";
}

Column::Column(DataType type) : type_(type) {}

Column Column::FromDoubles(std::vector<double> values) {
  Column column(DataType::kDouble);
  column.doubles_ = std::move(values);
  column.valid_.assign(column.doubles_.size(), true);
  return column;
}

Column Column::FromInt64s(std::vector<int64_t> values) {
  Column column(DataType::kInt64);
  column.int64s_ = std::move(values);
  column.valid_.assign(column.int64s_.size(), true);
  return column;
}

Column Column::FromStrings(std::vector<std::string> values) {
  Column column(DataType::kString);
  column.Reserve(values.size());
  for (const std::string& value : values) column.AppendString(value);
  return column;
}

Column Column::FromBools(std::vector<uint8_t> values) {
  Column column(DataType::kBool);
  column.bools_ = std::move(values);
  column.valid_.assign(column.bools_.size(), true);
  return column;
}

void Column::Reserve(size_t rows) {
  valid_.reserve(rows);
  switch (type_) {
    case DataType::kDouble:
      doubles_.reserve(rows);
      break;
    case DataType::kInt64:
      int64s_.reserve(rows);
      break;
    case DataType::kString:
      codes_.reserve(rows);
      break;
    case DataType::kBool:
      bools_.reserve(rows);
      break;
  }
}

void Column::AppendDouble(double value) {
  FAIRLAW_CHECK_MSG(type_ == DataType::kDouble,
                    "column accessed as double but holds another type");
  doubles_.push_back(value);
  valid_.push_back(true);
}

void Column::AppendInt64(int64_t value) {
  FAIRLAW_CHECK_MSG(type_ == DataType::kInt64,
                    "column accessed as int64 but holds another type");
  int64s_.push_back(value);
  valid_.push_back(true);
}

void Column::AppendString(std::string_view value) {
  FAIRLAW_CHECK_MSG(type_ == DataType::kString,
                    "column accessed as string but holds another type");
  const size_t code = dictionary_.KeyIndex(value);
  FAIRLAW_CHECK_MSG(code < kNullCode,
                    "string dictionary would reach the null code");
  codes_.push_back(static_cast<uint32_t>(code));
  valid_.push_back(true);
}

void Column::AppendBool(bool value) {
  FAIRLAW_CHECK_MSG(type_ == DataType::kBool,
                    "column accessed as bool but holds another type");
  bools_.push_back(value ? 1 : 0);
  valid_.push_back(true);
}

void Column::AppendNull() {
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kInt64:
      int64s_.push_back(0);
      break;
    case DataType::kString:
      codes_.push_back(kNullCode);
      break;
    case DataType::kBool:
      bools_.push_back(false);
      break;
  }
  valid_.push_back(false);
  ++null_count_;
}

Status Column::AppendCell(const Cell& cell) {
  switch (type_) {
    case DataType::kDouble:
      if (!std::holds_alternative<double>(cell)) {
        return Status::Invalid("AppendCell: expected double");
      }
      AppendDouble(std::get<double>(cell));
      return Status::OK();
    case DataType::kInt64:
      if (!std::holds_alternative<int64_t>(cell)) {
        return Status::Invalid("AppendCell: expected int64");
      }
      AppendInt64(std::get<int64_t>(cell));
      return Status::OK();
    case DataType::kString:
      if (!std::holds_alternative<std::string>(cell)) {
        return Status::Invalid("AppendCell: expected string");
      }
      AppendString(std::get<std::string>(cell));
      return Status::OK();
    case DataType::kBool:
      if (!std::holds_alternative<bool>(cell)) {
        return Status::Invalid("AppendCell: expected bool");
      }
      AppendBool(std::get<bool>(cell));
      return Status::OK();
  }
  FAIRLAW_NOTREACHED("AppendCell: unknown column type");
}

namespace {

Status CheckAccess(const Column& column, size_t row, DataType expected) {
  if (column.type() != expected) {
    return Status::Invalid(
        std::string("column type is ") +
        std::string(DataTypeToString(column.type())) + ", expected " +
        std::string(DataTypeToString(expected)));
  }
  if (row >= column.size()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range (size " +
                              std::to_string(column.size()) + ")");
  }
  if (!column.IsValid(row)) {
    return Status::Invalid("row " + std::to_string(row) + " is null");
  }
  return Status::OK();
}

}  // namespace

Result<double> Column::GetDouble(size_t row) const {
  FAIRLAW_RETURN_NOT_OK(CheckAccess(*this, row, DataType::kDouble));
  return doubles_[row];
}

Result<int64_t> Column::GetInt64(size_t row) const {
  FAIRLAW_RETURN_NOT_OK(CheckAccess(*this, row, DataType::kInt64));
  return int64s_[row];
}

Result<std::string> Column::GetString(size_t row) const {
  FAIRLAW_RETURN_NOT_OK(CheckAccess(*this, row, DataType::kString));
  return dictionary_.keys()[codes_[row]];
}

Result<bool> Column::GetBool(size_t row) const {
  FAIRLAW_RETURN_NOT_OK(CheckAccess(*this, row, DataType::kBool));
  return bools_[row] != 0;
}

Result<Cell> Column::GetCell(size_t row) const {
  if (row >= size()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  if (!valid_[row]) {
    return Status::Invalid("row " + std::to_string(row) + " is null");
  }
  switch (type_) {
    case DataType::kDouble:
      return Cell(doubles_[row]);
    case DataType::kInt64:
      return Cell(int64s_[row]);
    case DataType::kString:
      return Cell(dictionary_.keys()[codes_[row]]);
    case DataType::kBool:
      return Cell(bools_[row] != 0);
  }
  return Status::Internal("GetCell: unknown column type");
}

namespace {

Status CheckDenseView(const Column& column, DataType expected) {
  if (column.type() != expected) {
    return Status::Invalid(
        std::string("column type is ") +
        std::string(DataTypeToString(column.type())) + ", expected " +
        std::string(DataTypeToString(expected)));
  }
  if (column.null_count() > 0) {
    return Status::Invalid("column has " +
                           std::to_string(column.null_count()) +
                           " nulls; dense view requires none");
  }
  return Status::OK();
}

}  // namespace

Result<std::span<const double>> Column::Doubles() const {
  FAIRLAW_RETURN_NOT_OK(CheckDenseView(*this, DataType::kDouble));
  return std::span<const double>(doubles_);
}

Result<std::span<const int64_t>> Column::Int64s() const {
  FAIRLAW_RETURN_NOT_OK(CheckDenseView(*this, DataType::kInt64));
  return std::span<const int64_t>(int64s_);
}

Result<std::span<const uint8_t>> Column::Bools() const {
  FAIRLAW_RETURN_NOT_OK(CheckDenseView(*this, DataType::kBool));
  return std::span<const uint8_t>(bools_);
}

Result<std::vector<double>> Column::ToDoubles() const {
  if (null_count_ > 0) {
    return Status::Invalid("ToDoubles: column has nulls");
  }
  std::vector<double> out(size());
  switch (type_) {
    case DataType::kDouble:
      out = doubles_;
      return out;
    case DataType::kInt64:
      for (size_t i = 0; i < size(); ++i) {
        out[i] = static_cast<double>(int64s_[i]);
      }
      return out;
    case DataType::kBool:
      for (size_t i = 0; i < size(); ++i) {
        out[i] = bools_[i] != 0 ? 1.0 : 0.0;
      }
      return out;
    case DataType::kString:
      return Status::Invalid("ToDoubles: cannot convert string column");
  }
  return Status::Internal("ToDoubles: unknown column type");
}

std::string Column::ValueToString(size_t row) const {
  if (row >= size() || !valid_[row]) return "null";
  if (type_ == DataType::kString) return dictionary_.keys()[codes_[row]];
  // flowcheck: allow-unchecked-result (row bound and validity checked above)
  return CellToString(GetCell(row).ValueOrDie());
}

ColumnKeys ExtractKeys(const Column& column) {
  ColumnKeys out;
  if (column.type() == DataType::kString && column.null_count() == 0) {
    out.codes.assign(column.Codes().begin(), column.Codes().end());
    out.keys = column.dictionary().keys();
    return out;
  }
  stats::FirstSeenMap<std::monostate> keys;
  out.codes.resize(column.size());
  for (size_t row = 0; row < column.size(); ++row) {
    out.codes[row] =
        static_cast<uint32_t>(keys.KeyIndex(column.ValueToString(row)));
  }
  out.keys = keys.keys();
  return out;
}

}  // namespace fairlaw::data
