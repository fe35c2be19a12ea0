#ifndef MAYBMS_WORLDS_PARTITION_H_
#define MAYBMS_WORLDS_PARTITION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "base/result.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace maybms::worlds {

/// One weighted way of choosing rows out of a partition block.
struct WeightedChoice {
  std::vector<size_t> row_indices;  // indices into the source table
  double probability = 1.0;         // normalized within the block
};

/// A maximal set of mutually exclusive choices (one per created world).
struct PartitionBlock {
  std::vector<WeightedChoice> choices;
};

/// Computes the `repair by key` partition of `source` (paper Ex. 2.3/2.4):
/// one block per distinct key value; within a block one choice per tuple,
/// weighted by the weight column (uniform if absent). NULL keys form their
/// own group per NULL-containing tuple? No — NULL key values group
/// together like ordinary values under total-order semantics.
///
/// The repaired world-set is the product of the blocks.
Result<std::vector<PartitionBlock>> RepairPartition(
    const Table& source, const sql::RepairClause& clause);

/// Computes the `choice of` partition (paper Ex. 2.6/2.7): a single block
/// with one choice per distinct value combination of the chosen columns;
/// each choice selects all tuples with that value, weighted by the sum of
/// the weight column over the partition (uniform if absent).
Result<std::vector<PartitionBlock>> ChoicePartition(
    const Table& source, const sql::ChoiceClause& clause);

/// The partition of `source` under `stmt`'s repair or choice clause
/// (the statement must carry one).
Result<std::vector<PartitionBlock>> Partition(
    const Table& source, const sql::SelectStatement& stmt);

/// Resolves `names` to column indices of `schema` (unqualified lookup).
Result<std::vector<size_t>> ResolveColumns(
    const Schema& schema, const std::vector<std::string>& names);

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_PARTITION_H_
