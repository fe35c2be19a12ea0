#include "worlds/partition.h"

#include <map>
#include <optional>

namespace maybms::worlds {

namespace {

/// Reads the weight of a row: positive number required (paper Ex. 2.4:
/// "this makes sense, of course, if all D-values are numbers greater than
/// zero").
Result<double> RowWeight(const Table& source, size_t row,
                         const std::optional<size_t>& weight_column) {
  if (!weight_column.has_value()) return 1.0;
  const Value& v = source.row(row).value(*weight_column);
  if (v.is_null() || !v.IsNumeric()) {
    return Status::InvalidArgument(
        "weight column must hold numeric non-NULL values, found " +
        v.ToString());
  }
  double w = v.NumericValue();
  if (w <= 0) {
    return Status::InvalidArgument("weights must be positive, found " +
                                   v.ToString());
  }
  return w;
}

/// The index of the weight column `name`, or nullopt without one.
Result<std::optional<size_t>> WeightColumn(const Schema& schema,
                                           const std::string& name) {
  if (name.empty()) return std::optional<size_t>();
  MAYBMS_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(name));
  return std::optional<size_t>(idx);
}

}  // namespace

Result<std::vector<PartitionBlock>> Partition(
    const Table& source, const sql::SelectStatement& stmt) {
  if (stmt.repair.has_value()) return RepairPartition(source, *stmt.repair);
  return ChoicePartition(source, *stmt.choice);
}

Result<std::vector<size_t>> ResolveColumns(
    const Schema& schema, const std::vector<std::string>& names) {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) {
    MAYBMS_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(name));
    indices.push_back(idx);
  }
  return indices;
}

Result<std::vector<PartitionBlock>> RepairPartition(
    const Table& source, const sql::RepairClause& clause) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<size_t> key_cols,
                          ResolveColumns(source.schema(), clause.key_columns));
  MAYBMS_ASSIGN_OR_RETURN(std::optional<size_t> weight_col,
                          WeightColumn(source.schema(), clause.weight_column));

  // Group rows by key value (deterministic order via Tuple's total order).
  std::map<Tuple, std::vector<size_t>> groups;
  for (size_t i = 0; i < source.num_rows(); ++i) {
    groups[source.row(i).Project(key_cols)].push_back(i);
  }

  std::vector<PartitionBlock> blocks;
  blocks.reserve(groups.size());
  for (const auto& [key, rows] : groups) {
    PartitionBlock block;
    double total = 0;
    std::vector<double> weights;
    weights.reserve(rows.size());
    for (size_t row : rows) {
      MAYBMS_ASSIGN_OR_RETURN(double w, RowWeight(source, row, weight_col));
      weights.push_back(w);
      total += w;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      block.choices.push_back(WeightedChoice{{rows[i]}, weights[i] / total});
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

Result<std::vector<PartitionBlock>> ChoicePartition(
    const Table& source, const sql::ChoiceClause& clause) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<size_t> cols,
                          ResolveColumns(source.schema(), clause.columns));
  MAYBMS_ASSIGN_OR_RETURN(std::optional<size_t> weight_col,
                          WeightColumn(source.schema(), clause.weight_column));

  std::map<Tuple, std::vector<size_t>> partitions;
  for (size_t i = 0; i < source.num_rows(); ++i) {
    partitions[source.row(i).Project(cols)].push_back(i);
  }
  if (partitions.empty()) {
    return Status::EmptyWorldSet(
        "choice of over an empty relation creates no worlds");
  }

  PartitionBlock block;
  double total = 0;
  std::vector<double> weights;
  for (const auto& [key, rows] : partitions) {
    double w = 0;
    if (weight_col.has_value()) {
      for (size_t row : rows) {
        MAYBMS_ASSIGN_OR_RETURN(double rw, RowWeight(source, row, weight_col));
        w += rw;
      }
    } else {
      w = 1;  // uniform over partitions
    }
    weights.push_back(w);
    total += w;
  }
  size_t idx = 0;
  for (const auto& [key, rows] : partitions) {
    block.choices.push_back(WeightedChoice{rows, weights[idx] / total});
    ++idx;
  }
  return {std::vector<PartitionBlock>{std::move(block)}};
}

}  // namespace maybms::worlds
