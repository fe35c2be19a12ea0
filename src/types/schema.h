#ifndef MAYBMS_TYPES_SCHEMA_H_
#define MAYBMS_TYPES_SCHEMA_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "base/result.h"
#include "types/value.h"

namespace maybms {

/// A named, typed column. `qualifier` is the table alias a column is bound
/// to during query processing (e.g. "i2" in `from I i2`); empty for base
/// tables and computed columns.
struct Column {
  std::string name;
  DataType type = DataType::kText;
  std::string qualifier;

  Column() = default;
  Column(std::string name_in, DataType type_in, std::string qualifier_in = "")
      : name(std::move(name_in)),
        type(type_in),
        qualifier(std::move(qualifier_in)) {}
};

/// Ordered list of columns describing a table or intermediate result.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  void AddColumn(Column column) { columns_.push_back(std::move(column)); }

  /// Finds the index of `name` (optionally qualified by `qualifier`).
  /// Name matching is case-insensitive. Returns NotFound if absent and
  /// InvalidArgument if ambiguous.
  Result<size_t> FindColumn(const std::string& name,
                            const std::string& qualifier = "") const;

  /// True if some column matches (unambiguously or not).
  bool HasColumn(const std::string& name,
                 const std::string& qualifier = "") const;

  /// The number of columns `name` (optionally qualified) matches, with
  /// the first one's index in `*first`: FindColumn and HasColumn in one
  /// scan, for per-row lookups.
  size_t Match(const std::string& name, const std::string& qualifier,
               size_t* first) const;

  /// Concatenation of two schemas (for joins).
  static Schema Concat(const Schema& left, const Schema& right);

  /// Returns a copy with every column's qualifier replaced by `qualifier`.
  Schema WithQualifier(const std::string& qualifier) const;

  /// "name TYPE, name TYPE, ..." — used in error messages and tests.
  std::string ToString() const;

  bool operator==(const Schema& other) const;

 private:
  std::vector<Column> columns_;
};

}  // namespace maybms

#endif  // MAYBMS_TYPES_SCHEMA_H_
