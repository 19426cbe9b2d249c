#include "data/table.h"

#include <algorithm>

namespace fairlaw::data {

Result<Table> Table::Make(Schema schema, std::vector<Column> columns) {
  if (schema.num_fields() != columns.size()) {
    return Status::Invalid("Table::Make: schema has " +
                           std::to_string(schema.num_fields()) +
                           " fields but " + std::to_string(columns.size()) +
                           " columns were given");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.field(i).type) {
      return Status::Invalid("Table::Make: column '" + schema.field(i).name +
                             "' type mismatch");
    }
    if (columns[i].size() != columns[0].size()) {
      return Status::Invalid("Table::Make: column '" + schema.field(i).name +
                             "' has length " +
                             std::to_string(columns[i].size()) +
                             ", expected " +
                             std::to_string(columns[0].size()));
    }
  }
  return Table(std::move(schema), std::move(columns));
}

Result<const Column*> Table::GetColumn(std::string_view name) const {
  FAIRLAW_ASSIGN_OR_RETURN(size_t index, schema_.FieldIndex(name));
  return &columns_[index];
}

Result<Table> Table::AddColumn(const std::string& name, Column column) const {
  if (num_columns() > 0 && column.size() != num_rows()) {
    return Status::Invalid("AddColumn: column length " +
                           std::to_string(column.size()) +
                           " != table rows " + std::to_string(num_rows()));
  }
  FAIRLAW_ASSIGN_OR_RETURN(Schema schema,
                           schema_.AddField(Field{name, column.type()}));
  std::vector<Column> columns = columns_;
  columns.push_back(std::move(column));
  return Table(std::move(schema), std::move(columns));
}

std::string Table::Preview(size_t max_rows) const {
  // Column widths sized to header and shown cells.
  std::vector<size_t> widths(num_columns());
  const size_t rows = std::min(max_rows, num_rows());
  for (size_t c = 0; c < num_columns(); ++c) {
    widths[c] = schema_.field(c).name.size();
    for (size_t r = 0; r < rows; ++r) {
      widths[c] = std::max(widths[c], columns_[c].ValueToString(r).size());
    }
  }
  std::string out;
  for (size_t c = 0; c < num_columns(); ++c) {
    std::string cell = schema_.field(c).name;
    cell.resize(widths[c], ' ');
    out += cell;
    out += c + 1 < num_columns() ? "  " : "\n";
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      std::string cell = columns_[c].ValueToString(r);
      cell.resize(widths[c], ' ');
      out += cell;
      out += c + 1 < num_columns() ? "  " : "\n";
    }
  }
  if (rows < num_rows()) {
    out += "... (" + std::to_string(num_rows() - rows) + " more rows)\n";
  }
  return out;
}

TableBuilder::TableBuilder(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    columns_.emplace_back(schema_.field(i).type);
  }
}

Status TableBuilder::AppendRow(const std::vector<Cell>& cells) {
  if (cells.size() != schema_.num_fields()) {
    return Status::Invalid("AppendRow: expected " +
                           std::to_string(schema_.num_fields()) +
                           " cells, got " + std::to_string(cells.size()));
  }
  // Validate the whole row before mutating so a failed append leaves the
  // builder consistent.
  for (size_t i = 0; i < cells.size(); ++i) {
    bool matches = false;
    switch (schema_.field(i).type) {
      case DataType::kDouble:
        matches = std::holds_alternative<double>(cells[i]);
        break;
      case DataType::kInt64:
        matches = std::holds_alternative<int64_t>(cells[i]);
        break;
      case DataType::kString:
        matches = std::holds_alternative<std::string>(cells[i]);
        break;
      case DataType::kBool:
        matches = std::holds_alternative<bool>(cells[i]);
        break;
    }
    if (!matches) {
      return Status::Invalid("AppendRow: cell " + std::to_string(i) +
                             " does not match field '" +
                             schema_.field(i).name + "'");
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    FAIRLAW_RETURN_NOT_OK(columns_[i].AppendCell(cells[i]));
  }
  return Status::OK();
}

Result<Table> TableBuilder::Finish() {
  Schema schema = schema_;
  std::vector<Column> columns = std::move(columns_);
  columns_.clear();
  columns_.reserve(schema_.num_fields());
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    columns_.emplace_back(schema_.field(i).type);
  }
  return Table::Make(std::move(schema), std::move(columns));
}

}  // namespace fairlaw::data
