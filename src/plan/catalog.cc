#include "plan/catalog.h"

#include "util/string_util.h"

namespace prestroid::plan {

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return "int";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kString:
      return "string";
    case ColumnType::kTimestamp:
      return "timestamp";
  }
  return "?";
}

const ColumnDef* TableDef::FindColumn(std::string_view column) const {
  for (const ColumnDef& col : columns) {
    if (col.name == column) return &col;
  }
  return nullptr;
}

Status Catalog::AddTable(TableDef table) {
  if (tables_.count(table.name) > 0) {
    return Status::AlreadyExists("table already defined: " + table.name);
  }
  std::string name = table.name;
  tables_.emplace(std::move(name), std::move(table));
  return Status::OK();
}

Result<const TableDef*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("unknown table: " + name);
  }
  return &it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Result<std::string> Catalog::ResolveColumn(
    const std::string& column, const std::vector<std::string>& tables) const {
  for (const std::string& table_name : tables) {
    auto it = tables_.find(table_name);
    if (it == tables_.end()) continue;
    if (it->second.FindColumn(column) != nullptr) return table_name;
  }
  return Status::NotFound(
      StrFormat("column '%s' not found in any candidate table", column.c_str()));
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, def] : tables_) names.push_back(name);
  return names;
}

}  // namespace prestroid::plan
