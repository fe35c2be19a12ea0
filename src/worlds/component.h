#ifndef MAYBMS_WORLDS_COMPONENT_H_
#define MAYBMS_WORLDS_COMPONENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "types/tuple.h"
#include "types/value.h"

namespace maybms::worlds {

/// One local world of a component: a probability plus the tuples this
/// choice contributes to each relation (keys are lower-cased relation
/// names). Choosing one alternative from every component — independently —
/// yields one possible world; the world's relation instance is the certain
/// core plus the chosen alternatives' contributions.
struct Alternative {
  double probability = 1.0;
  std::map<std::string, std::vector<Tuple>> tuples;

  const std::vector<Tuple>* TuplesFor(const std::string& relation_lower) const;
};

/// What a comparison with a literal can learn about one column of a
/// component's rows of one relation: the smallest and the largest
/// non-NULL value, whether some row holds NULL, and the comparison class
/// all non-NULL values share. Numbers (INTEGER and REAL) are one class and
/// compare by exact value; TEXT compares bytewise and BOOLEAN false before
/// true. A column whose values mix classes, or that holds a NaN (which
/// compares with nothing), is kMixed: no bound is known.
struct ColumnRange {
  enum class Class : uint8_t { kNone, kNumeric, kText, kBoolean, kMixed };

  Class value_class = Class::kNone;  // kNone: no non-NULL value
  bool has_null = false;
  // Set for kNumeric, kText and kBoolean: views into the component's own
  // rows, which a shared component never changes.
  const Value* min = nullptr;
  const Value* max = nullptr;

  /// Takes in a value of a row that outlives the range.
  void Add(const Value& value);

  /// The class of a value; kNone for NULL, kMixed for a NaN.
  static Class ClassOf(const Value& value) {
    switch (value.type()) {
      case DataType::kInteger:
        return Class::kNumeric;
      case DataType::kReal:
        return value.AsReal() != value.AsReal() ? Class::kMixed  // NaN
                                                : Class::kNumeric;
      case DataType::kText:
        return Class::kText;
      case DataType::kBoolean:
        return Class::kBoolean;
      default:
        return Class::kNone;
    }
  }
};

/// A component's ranges for one relation, one per column.
using RelationRanges = std::vector<ColumnRange>;

/// An independent factor of a world-set decomposition (ICDT'07 WSDs,
/// restricted to tuple-level alternatives — which is all the demo paper's
/// operations ever create). Alternatives are mutually exclusive and their
/// probabilities sum to one.
struct Component {
  std::vector<Alternative> alternatives;
  /// Per relation (lower-cased) the alternatives contribute rows to, by
  /// name, the ranges of its columns over all those rows. Derived data:
  /// set by ShareComponent, never persisted. They view this component's
  /// rows, so a copy's are the original's until the copy is shared.
  std::vector<std::pair<std::string, RelationRanges>> ranges;

  /// The ranges of `relation_lower`; null if no row of it is here.
  const RelationRanges* RangesOf(const std::string& relation_lower) const;

  size_t size() const { return alternatives.size(); }

  bool ContributesTo(const std::string& relation_lower) const;

  /// Rescales alternative probabilities to sum to one. Returns an error if
  /// the total mass is zero.
  Status Normalize();
};

/// A component as a world-set holds it: shared and immutable, so cloning
/// a world-set is handle bumps. Writers copy the component, change the
/// copy and store a new handle (copy-on-write).
using ComponentHandle = std::shared_ptr<const Component>;

/// Wraps a finished component in a handle, with its ranges computed. The
/// reference counts live in a separate allocation, so the counting that
/// clones do never writes to the cache lines that readers of the
/// component use. Every component a world-set holds is made here.
ComponentHandle ShareComponent(Component component);

/// The digits of `index` in the mixed radix `radices`, digit 0 least
/// significant. This is the one enumeration order of every product in
/// the engines: component sub-products (the decomposed world source and
/// its commits, per-world listings) and repair/choice partition blocks.
std::vector<size_t> DecodeProductIndex(uint64_t index,
                                       const std::vector<size_t>& radices);

/// The product of `radices`, saturating at the largest uint64_t.
uint64_t RadixProduct(const std::vector<size_t>& radices);

/// The number of worlds in the product of `parts` (saturating).
uint64_t ProductSize(const std::vector<const Component*>& parts);

/// Alternative `index` of the product of `parts`, one chosen alternative
/// per part (in DecodeProductIndex's order), into `chosen`, which keeps
/// its capacity: a caller that reuses it decodes without allocating.
/// Returns their probability product, multiplied in part order.
double ChooseAlternatives(const std::vector<const Component*>& parts,
                          uint64_t index,
                          std::vector<const Alternative*>* chosen);

/// One alternative carrying every contribution of `chosen` (concatenated
/// per relation in `chosen` order) with the given probability, except
/// those to the relation `skip` (lower-cased), which the caller replaces.
Alternative FlattenAlternatives(const std::vector<const Alternative*>& chosen,
                                double probability,
                                const std::string& skip);

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_COMPONENT_H_
