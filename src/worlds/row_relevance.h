#ifndef MAYBMS_WORLDS_ROW_RELEVANCE_H_
#define MAYBMS_WORLDS_ROW_RELEVANCE_H_

// Row-level relevance: which components of a world-set decomposition a
// select can read a row from.
//
// On a decomposition a selection distributes over the components. A
// component none of whose rows can pass the WHERE clause of any
// occurrence of the relations it feeds adds nothing to any world's
// answer, so the statement can leave it out. RowRelevance decides that
// from the statement's text and each component's column ranges
// (worlds/component.h), never from the rows themselves.
//
// Only these WHERE forms are analysed: AND, OR and NOT; `column op
// literal` and `literal op column` with op one of =, <>, <, <=, >, >=;
// non-negated BETWEEN over literals; IN over a list of literals; IS [NOT]
// NULL; and column-to-column comparisons, which never exclude anything.
// A literal may carry a unary minus. Anything else in a SELECT block's
// WHERE (arithmetic, casts, functions, subqueries, references to an
// enclosing query), an explicit JOIN, or a relation the schemas do not
// hold makes every occurrence in that block read all of its relation's
// components. So does an occurrence without a conjunct of its own.
//
// A conjunct belongs to one occurrence when it reads that occurrence's
// columns alone; the planner (engine/prepared.h) applies exactly those
// conjuncts at the occurrence's scan, before any pair of rows is formed,
// so a row they reject meets no other conjunct. A conjunct over two
// occurrences must be a column-to-column comparison whose declared column
// types share a comparison class (a join condition such as I1.V = I2.V).
// It belongs to no occurrence.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "storage/catalog.h"
#include "types/value.h"
#include "worlds/component.h"

namespace maybms::worlds {

/// The WHERE clauses of every occurrence of one relation in a statement,
/// compiled against column positions.
class RangeTests {
 public:
  /// False if the ranges of one component for this relation prove, for
  /// every occurrence, that its WHERE is TRUE on none of the component's
  /// rows and raises no error on any of them.
  bool MayKeep(std::span<const ColumnRange> ranges) const;

  /// One test of an occurrence's WHERE, over column positions.
  struct Node {
    enum class Kind { kAnd, kOr, kNot, kCompare, kIn, kIsNull, kColumns };
    Kind kind = Kind::kCompare;
    bool negated = false;  // kIn, kIsNull
    size_t column = 0;
    size_t other = 0;             // kColumns: the right-hand column
    size_t left = 0;              // children of kAnd, kOr and kNot (left)
    size_t right = 0;
    std::vector<Value> literals;  // kCompare: one; kIn: the list
    // kCompare: the literal's class, and the outcomes by the signs of
    // min - literal and max - literal, at (sign + 1) * 3 + (sign + 1).
    ColumnRange::Class literal_class = ColumnRange::Class::kNone;
    std::array<uint8_t, 9> outcomes{};
  };
  /// One occurrence's WHERE: a tree whose root is the last node.
  using Occurrence = std::vector<Node>;

 private:
  friend class RowRelevance;

  std::vector<Occurrence> occurrences_;
};

/// The row-local tests a select statement puts on each relation it reads:
/// every SELECT block of the statement (ForEachSelectBlock: the main
/// query, UNION branches, subqueries anywhere, the assert and GROUP WORLDS
/// BY queries) is analysed, against the column schemas of `schemas`.
class RowRelevance {
 public:
  RowRelevance(const sql::SelectStatement& stmt, const Database& schemas);

  /// The tests of `relation` (lower-case), or null when some occurrence
  /// of it reads every component: then each one feeding it stays.
  const RangeTests* TestsFor(const std::string& relation) const;

 private:
  /// Adds the occurrences of one block (its FROM items).
  void AnalyseBlock(const sql::SelectStatement& block, const Database& schemas);

  // Per relation read: its tests, or nullopt when every component stays.
  std::map<std::string, std::optional<RangeTests>> relations_;
};

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_ROW_RELEVANCE_H_
