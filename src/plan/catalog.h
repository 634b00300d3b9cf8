#ifndef PRESTROID_PLAN_CATALOG_H_
#define PRESTROID_PLAN_CATALOG_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace prestroid::plan {

/// Column value domains used for selectivity estimation and predicate-literal
/// generation.
enum class ColumnType { kInt, kDouble, kString, kTimestamp };

const char* ColumnTypeToString(ColumnType type);

/// Schema + statistics for one column.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInt;
  /// Number of distinct values; drives equality selectivity = 1/ndv.
  double num_distinct = 1000.0;
  /// Value range for numeric columns (range-predicate selectivity).
  double min_value = 0.0;
  double max_value = 1e6;
};

/// Schema + statistics for one table.
struct TableDef {
  std::string name;
  double row_count = 1e6;
  /// Average bytes per row (drives scan cost).
  double row_bytes = 128.0;
  std::vector<ColumnDef> columns;

  /// Returns nullptr if the column is not present.
  const ColumnDef* FindColumn(std::string_view column) const;
};

/// In-memory catalog of table definitions (the simulated data lake's
/// metastore). Owns all TableDefs; lookups return stable pointers.
class Catalog {
 public:
  /// Fails with AlreadyExists on duplicate table names.
  Status AddTable(TableDef table);

  /// Returns NotFound if absent.
  Result<const TableDef*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  /// Resolves an unqualified column against the given candidate tables,
  /// returning the first table that defines it (NotFound otherwise).
  Result<std::string> ResolveColumn(const std::string& column,
                                    const std::vector<std::string>& tables) const;

  size_t size() const { return tables_.size(); }
  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, TableDef> tables_;
};

}  // namespace prestroid::plan

#endif  // PRESTROID_PLAN_CATALOG_H_
